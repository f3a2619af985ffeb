package topology

import (
	"fmt"
	"strings"
)

// Baselines returns the four baseline protocols of the paper's evaluation
// (§5.1), in the order used by Table 1 and Figures 6–10: MST, RNG, SPT-4,
// SPT-2. normalRange is the normal transmission range (250 m in the paper).
func Baselines(normalRange float64) []Protocol {
	return []Protocol{
		MST{Range: normalRange},
		RNG{},
		SPT{Alpha: 4, Range: normalRange},
		SPT{Alpha: 2, Range: normalRange},
	}
}

// protocols is the registry ByName and Names read: every protocol a run
// can name, built for the given normal range. Each is found by its Name.
func protocols(normalRange float64) []Protocol {
	return []Protocol{
		MST{Range: normalRange},
		RNG{},
		Gabriel{},
		SPT{Alpha: 2, Range: normalRange},
		SPT{Alpha: 4, Range: normalRange},
		Yao{K: 6},
		None{},
	}
}

// Names returns the protocol names ByName accepts, in registry order.
func Names() []string {
	var names []string
	for _, p := range protocols(0) {
		names = append(names, p.Name())
	}
	return names
}

// ByName returns the registered protocol with the given name (one of
// Names). normalRange parameterizes the protocols that need the normal
// transmission range.
func ByName(name string, normalRange float64) (Protocol, error) {
	for _, p := range protocols(normalRange) {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("topology: unknown protocol %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// WeakByName returns the weak-consistency variant of the given protocol
// name ("MST", "RNG", "SPT-2", "SPT-4").
func WeakByName(name string, normalRange float64) (WeakProtocol, error) {
	switch name {
	case "MST":
		return WeakMST{Range: normalRange}, nil
	case "RNG":
		return WeakRNG{}, nil
	case "SPT-2":
		return WeakSPT{Alpha: 2, Range: normalRange}, nil
	case "SPT-4":
		return WeakSPT{Alpha: 4, Range: normalRange}, nil
	}
	return nil, fmt.Errorf("topology: no weak variant for protocol %q", name)
}
