package manet

import (
	"math"
	"runtime"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

// TestMemoryLinearInN guards against per-run state that grows with n²
// (per-node slots for every possible sender, per-node n-entry masks): the
// bytes allocated by NewNetwork plus a 3 s Run at the paper's density
// (100 nodes per 900 m square, so degree holds as n grows) must scale
// about linearly from n = 500 to n = 2000. Linear growth gives a ratio
// near 4; n² state gives near 16.
func TestMemoryLinearInN(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"k=1", Config{Protocol: topology.RNG{}, Seed: 5}},
		// k > 1 tables keep every sender heard; over 3 s that is still
		// about the neighborhood, so growth must stay linear here too.
		{"k=3", Config{Weak: topology.WeakRNG{}, Seed: 5, Mech: Mechanisms{WeakK: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, large := runAlloc(t, 500, tc.cfg), runAlloc(t, 2000, tc.cfg)
			ratio := float64(large) / float64(small)
			t.Logf("NewNetwork+Run(3): n=500 %.2f MiB, n=2000 %.2f MiB, ratio %.2f",
				float64(small)/(1<<20), float64(large)/(1<<20), ratio)
			if ratio >= 6 {
				t.Errorf("allocation grew %.2fx from n=500 to n=2000 (linear ≈ 4, quadratic ≈ 16): n² state is back", ratio)
			}
		})
	}
}

// runAlloc returns the bytes allocated by NewNetwork plus a 3 s Run of n
// nodes at the paper's density under cfg.
func runAlloc(t *testing.T, n int, cfg Config) uint64 {
	t.Helper()
	lo, hi := mobility.SpeedSetdest(20)
	side := 900 * math.Sqrt(float64(n)/100)
	model, err := mobility.NewRandomWaypoint(geom.Square(side), mobility.WaypointConfig{
		N: n, SpeedMin: lo, SpeedMax: hi, Horizon: 3,
	}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(3)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
