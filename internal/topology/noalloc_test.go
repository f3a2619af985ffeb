package topology

import (
	"sort"
	"testing"

	"mstc/internal/lint"
	"mstc/internal/xrand"
)

// TestNoallocAnnotationsConform pins every //manet:noalloc annotation in
// this package with testing.AllocsPerRun: on reused buffers (warm Scratch,
// recycled dst) each annotated kernel must allocate nothing. The coverage
// map is cross-checked against the annotation scan in both directions, so
// annotating a new function without measuring it here — or measuring one
// that lost its annotation — fails the test, keeping the static claim and
// the dynamic proof in lockstep.
func TestNoallocAnnotationsConform(t *testing.T) {
	rng := xrand.New(91)
	v := randView(rng, 20)
	mv := randMultiView(rng, 14, 3)
	s := &Scratch{}
	var dst []int
	// The interface values are built once, as the simulator does (a
	// network holds its protocol in an interface field): converting the
	// concrete value inside the measured closure would charge the caller's
	// boxing to the kernel.
	var ip Protocol = MST{Range: 275}
	var wp WeakProtocol = WeakMST{Range: 275}

	kernels := map[string]func(){
		"SelectInto":             func() { dst = SelectInto(ip, v, dst[:0], s) },
		"SelectWeakInto":         func() { dst = SelectWeakInto(wp, mv, dst[:0], s) },
		"RNG.SelectInto":         func() { dst = RNG{}.SelectInto(v, dst[:0], s) },
		"Gabriel.SelectInto":     func() { dst = Gabriel{}.SelectInto(v, dst[:0], s) },
		"MST.SelectInto":         func() { dst = MST{Range: 275}.SelectInto(v, dst[:0], s) },
		"SPT.SelectInto":         func() { dst = SPT{Alpha: 2, Range: 275}.SelectInto(v, dst[:0], s) },
		"Yao.SelectInto":         func() { dst = Yao{K: 6}.SelectInto(v, dst[:0], s) },
		"None.SelectInto":        func() { dst = None{}.SelectInto(v, dst[:0], s) },
		"WeakRNG.SelectWeakInto": func() { dst = WeakRNG{}.SelectWeakInto(mv, dst[:0], s) },
		"WeakMST.SelectWeakInto": func() { dst = WeakMST{Range: 275}.SelectWeakInto(mv, dst[:0], s) },
		"WeakSPT.SelectWeakInto": func() { dst = WeakSPT{Alpha: 2, Range: 275}.SelectWeakInto(mv, dst[:0], s) },
	}

	assertNoallocCoverage(t, kernels)
	var names []string
	for name := range kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := kernels[name]
		fn() // grow Scratch and dst to steady state before measuring
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/run in steady state, want 0", name, allocs)
		}
	}
}

// assertNoallocCoverage fails unless the measured set equals the annotated
// set from the package sources.
func assertNoallocCoverage(t *testing.T, covered map[string]func()) {
	t.Helper()
	annotated, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(annotated))
	for _, name := range annotated {
		seen[name] = true
		if covered[name] == nil {
			t.Errorf("%s is annotated //manet:noalloc but has no AllocsPerRun entry", name)
		}
	}
	for name := range covered {
		if !seen[name] {
			t.Errorf("%s is measured here but not annotated //manet:noalloc", name)
		}
	}
}
