package radio

import (
	"slices"
	"testing"

	"mstc/internal/xrand"
)

// FuzzDegreesAt is the differential test for DegreesAt: at random instants
// (forward, backward and repeated), with ranges that are zero, negative,
// normal or wider than the arena, and with the default or a negative
// (rebuild-every-instant) slack, every count equals
// the length of ReceiversAt's answer on a fresh medium. Receiver queries
// interleaved on the medium under test must keep answering as a fresh
// medium does, whatever grid DegreesAt left behind.
func FuzzDegreesAt(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(40), false)
	f.Add(uint64(2), uint8(60), uint8(160), false)
	f.Add(uint64(3), uint8(7), uint8(1), true)
	f.Add(uint64(4), uint8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, nSel, speed uint8, exact bool) {
		const horizon = 30.0
		n := 1 + int(nSel)%80
		model := newWaypointModel(t, n, 1+float64(speed), horizon, seed)
		var cfg Config
		if exact {
			cfg.Slack = -1
		}
		newMed := func() *Medium {
			m, err := NewMedium(model, cfg, xrand.New(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		med := newMed()
		rng := xrand.New(seed)
		ranges := make([]float64, n)
		var deg, got, want []int
		at := 0.0
		for step := 0; step < 40; step++ {
			switch rng.Intn(6) {
			case 0: // repeat the instant
			case 1:
				at = rng.Uniform(0, at)
			default:
				at += rng.Uniform(0, 0.3)
				if at > horizon {
					at = rng.Uniform(0, horizon)
				}
			}
			if rng.Intn(3) > 0 {
				for id := range ranges {
					switch rng.Intn(8) {
					case 0:
						ranges[id] = 0
					case 1:
						ranges[id] = -rng.Uniform(0, 300)
					case 2:
						ranges[id] = rng.Uniform(1300, 3000) // wider than the 900 m arena's diagonal
					default:
						ranges[id] = rng.Uniform(50, 300)
					}
				}
				deg = med.DegreesAt(at, ranges, deg[:0])
				if len(deg) != n {
					t.Fatalf("step %d: %d counts for %d nodes", step, len(deg), n)
				}
				ref := newMed()
				for id, r := range ranges {
					want = ref.ReceiversAt(at, id, r, want[:0])
					if deg[id] != len(want) {
						t.Fatalf("step %d (t=%v): node %d range %g: degree %d, ReceiversAt has %d",
							step, at, id, r, deg[id], len(want))
					}
				}
				continue
			}
			sender, r := rng.Intn(n), rng.Uniform(50, 300)
			got = med.ReceiversAt(at, sender, r, got[:0])
			want = newMed().ReceiversAt(at, sender, r, want[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (t=%v): ReceiversAt(%d, %g) = %v after DegreesAt, fresh medium says %v",
					step, at, sender, r, got, want)
			}
		}
	})
}
