package manet

import (
	"testing"

	"mstc/internal/topology"
)

// TestSmokeMechanisms checks the headline mechanism results: view
// synchronization + small buffer rescues RNG at moderate mobility (Fig. 9b),
// and physical neighbors + large buffer rescue every protocol even at
// extreme mobility (Fig. 10).
func TestSmokeMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run")
	}
	run := func(name string, speed float64, cfg Config) Result {
		model := waypointModel(t, speed, 42)
		nw, err := NewNetwork(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := nw.Run(30)
		t.Logf("%-28s speed=%3.0f conn=%.3f range=%.1f phyDeg=%.2f",
			name, speed, res.Connectivity, res.AvgTxRange, res.AvgPhysicalDegree)
		return res
	}

	// RNG raw at 40 m/s: collapsed.
	raw := run("RNG", 40, Config{Protocol: topology.RNG{}, FloodRate: 10, Seed: 7})
	// RNG + 10 m buffer + view sync: tolerant (paper: >= 90%).
	vs := run("RNG+buf10+VS", 40, Config{
		Protocol: topology.RNG{}, FloodRate: 10, Seed: 7,
		Mech: Mechanisms{Buffer: 10, ViewSync: true},
	})
	if vs.Connectivity < raw.Connectivity+0.3 {
		t.Errorf("view sync + buffer should rescue RNG: raw %.3f vs %.3f", raw.Connectivity, vs.Connectivity)
	}

	// MST + 100 m buffer + physical neighbors at 160 m/s: near-perfect.
	pn := run("MST+buf100+PN", 160, Config{
		Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 7,
		Mech: Mechanisms{Buffer: 100, PhysicalNeighbors: true},
	})
	if pn.Connectivity < 0.95 {
		t.Errorf("PN + 100 m buffer at 160 m/s should reach ~100%%, got %.3f", pn.Connectivity)
	}

	// Buffer-only on SPT-2 at 40 m/s with 10 m buffer: tolerant (Fig. 7d).
	spt := run("SPT-2+buf10", 40, Config{
		Protocol: topology.SPT{Alpha: 2, Range: 250}, FloodRate: 10, Seed: 7,
		Mech: Mechanisms{Buffer: 10},
	})
	// Single-run statistic: across seeds the buffered run sits near 0.81
	// (±0.03), while the unbuffered collapse is ~0.53 — 0.75 separates the
	// two regimes with margin for per-seed noise.
	if spt.Connectivity < 0.75 {
		t.Errorf("SPT-2 with 10 m buffer at 40 m/s should stay high, got %.3f", spt.Connectivity)
	}
}
