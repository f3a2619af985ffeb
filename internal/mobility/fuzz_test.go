package mobility

import (
	"math"
	"strings"
	"testing"

	"mstc/internal/xrand"
)

// FuzzWaypoint is the property test of the waypoint constructor: a config
// Validate rejects fails to build; one it accepts either builds within
// legBudget legs or returns the leg-budget error, and a built model never
// moves a node farther than MaxSpeed·|t2−t1| between two instants. N is
// folded into [-15, 16] so the fuzzer spends its memory on horizons and
// speeds, not on node count. `go test` runs the seed corpus;
// `go test -fuzz=FuzzWaypoint` explores further.
func FuzzWaypoint(f *testing.F) {
	f.Add(uint64(1), 5, 0.0, 40.0, 0.0, 100.0)     // setdest speeds, paper pause
	f.Add(uint64(2), 3, 1.0, 40.0, 2.0, 120.0)     // paused legs
	f.Add(uint64(3), 2, 0.0, 0.0, 0.0, 50.0)       // stationary: 1 s pause legs
	f.Add(uint64(4), 1, 0.0, 10.0, 0.0, 1e300)     // over the leg budget
	f.Add(uint64(5), 4, 5.0, 10.0, 1e300, 1e301)   // pauses that outrun the legs
	f.Add(uint64(6), 0, 1.0, 2.0, 0.0, 1.0)        // N = 0: rejected
	f.Add(uint64(7), 2, 3.0, 2.0, 0.0, 1.0)        // SpeedMax < SpeedMin: rejected
	f.Add(uint64(8), 2, 1.0, 2.0, 0.0, math.NaN()) // non-finite horizon: rejected
	f.Fuzz(func(t *testing.T, seed uint64, n int, speedMin, speedMax, pause, horizon float64) {
		if n > 16 || n < -15 {
			n %= 16
		}
		cfg := WaypointConfig{N: n, SpeedMin: speedMin, SpeedMax: speedMax, Pause: pause, Horizon: horizon}
		m, err := NewRandomWaypoint(arena, cfg, xrand.New(seed))
		if cfg.Validate() != nil {
			if err == nil {
				t.Fatalf("%+v: Validate rejects it, NewRandomWaypoint built it", cfg)
			}
			return
		}
		if err != nil {
			if !strings.Contains(err.Error(), "trajectory legs") {
				t.Fatalf("%+v: valid config failed with %v", cfg, err)
			}
			return
		}
		legs := 0
		for _, tr := range m.tracks {
			legs += len(tr.legs)
		}
		if m.N() != n || legs > legBudget {
			t.Fatalf("%+v: built %d nodes and %d legs, want %d nodes and at most %d legs", cfg, m.N(), legs, n, legBudget)
		}
		h, vmax := m.Horizon(), m.MaxSpeed()
		pairs := xrand.New(seed ^ 0x5eed)
		for q := 0; q < 24; q++ {
			t1 := pairs.Uniform(0, h)
			var t2 float64
			switch q % 3 {
			case 0: // anywhere, across many legs
				t2 = pairs.Uniform(0, h)
			case 1: // a short gap: one leg boundary or none
				t2 = t1 + pairs.Uniform(0, 1.5)
			default: // past the horizon, where positions clamp
				t2 = h + pairs.Uniform(0, 5)
			}
			id := pairs.Intn(n)
			d := m.PositionAt(id, t2).Dist(m.PositionAt(id, t1))
			if bound := vmax*math.Abs(t2-t1) + 1e-9; d > bound {
				t.Fatalf("%+v: node %d moved %.12g m in [%v, %v], MaxSpeed allows %.12g m", cfg, id, d, t1, t2, bound)
			}
		}
	})
}
