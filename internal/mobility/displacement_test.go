package mobility_test

import (
	"math"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

// TestMaxSpeedBoundsDisplacement pins the displacement bound that the radio's
// stale-grid inflation, the region-parallel scan's one-sided inflation and
// both scans' inner-disc shortcut rest on: no node of any model moves
// farther than MaxSpeed·|t2−t1| between two instants, up to 1e-9 m of float
// error. Instant pairs are drawn uniformly over the horizon (crossing many
// legs), a short gap apart (crossing one leg boundary or none) and
// straddling either end of the horizon, where positions clamp.
func TestMaxSpeedBoundsDisplacement(t *testing.T) {
	arena := geom.Square(900)
	const horizon = 120.0
	rng := xrand.New(7)
	must := func(m mobility.Model, err error) mobility.Model {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	models := []struct {
		name string
		m    mobility.Model
	}{
		{"RandomWaypoint", must(mobility.NewRandomWaypoint(arena, mobility.WaypointConfig{
			N: 20, SpeedMin: 1, SpeedMax: 40, Pause: 2, Horizon: horizon,
		}, rng.Sub('w')))},
		{"Static", mobility.NewStaticUniform(arena, 20, horizon, rng.Sub('s'))},
	}
	for _, tc := range models {
		m := tc.m
		t.Run(tc.name, func(t *testing.T) {
			h := m.Horizon()
			vmax := m.MaxSpeed()
			pairs := xrand.New(11)
			for q := 0; q < 20000; q++ {
				var t1, t2 float64
				switch q % 3 {
				case 0: // anywhere, across many legs
					t1, t2 = pairs.Uniform(0, h), pairs.Uniform(0, h)
				case 1: // a short gap: one leg boundary or none
					t1 = pairs.Uniform(0, h)
					t2 = t1 + pairs.Uniform(0, 1.5)
				default: // straddling an end of the horizon
					end := 0.0
					if pairs.Intn(2) == 0 {
						end = h
					}
					t1, t2 = end-pairs.Uniform(0, 5), end+pairs.Uniform(0, 5)
				}
				id := pairs.Intn(m.N())
				d := m.PositionAt(id, t2).Dist(m.PositionAt(id, t1))
				if bound := vmax*math.Abs(t2-t1) + 1e-9; d > bound {
					t.Fatalf("node %d moved %.12g m in [%v, %v], MaxSpeed %g allows %.12g m",
						id, d, t1, t2, vmax, bound)
				}
			}
		})
	}
}
