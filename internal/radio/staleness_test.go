package radio

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

// newWaypointModel builds a fast random-waypoint model with per-leg speeds
// up to vmax (m/s), the stress axis of the staleness bound.
func newWaypointModel(t testing.TB, n int, vmax, horizon float64, seed uint64) mobility.Model {
	t.Helper()
	m, err := mobility.NewRandomWaypoint(geom.Square(900), mobility.WaypointConfig{
		N: n, SpeedMin: 1, SpeedMax: vmax, Horizon: horizon,
	}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bruteReceivers is the O(n) reference: every node other than sender whose
// exact position at t is within r, ascending by id.
func bruteReceivers(m mobility.Model, t float64, sender int, r float64) []int {
	p := m.PositionAt(sender, t)
	r2 := r * r
	var out []int
	for id := 0; id < m.N(); id++ {
		if id == sender {
			continue
		}
		if m.PositionAt(id, t).Dist2(p) <= r2 {
			out = append(out, id)
		}
	}
	return out
}

// TestReceiversAtMatchesBruteForce is the differential test for the
// bounded-staleness grid: across slack budgets (including the negative
// "exact-instant rebuild" reference) and speeds up to 160 m/s, ReceiversAt
// must return exactly the brute-force disc scan's receiver set at every
// query instant. Query times are drawn mostly increasing — the simulation's
// access pattern — with occasional repeats and backward jumps mixed in.
func TestReceiversAtMatchesBruteForce(t *testing.T) {
	const horizon = 30.0
	for _, vmax := range []float64{2, 40, 160} {
		for _, slack := range []float64{-1, 0, 10, 500} {
			name := fmt.Sprintf("vmax=%g/slack=%g", vmax, slack)
			t.Run(name, func(t *testing.T) {
				model := newWaypointModel(t, 60, vmax, horizon, 11)
				med, err := NewMedium(model, Config{Slack: slack}, xrand.New(1))
				if err != nil {
					t.Fatal(err)
				}
				rng := xrand.New(99)
				at := 0.0
				buf := make([]int, 0, 64)
				for q := 0; q < 400; q++ {
					switch rng.Intn(10) {
					case 0: // repeat the same instant
					case 1: // backward jump
						at = rng.Uniform(0, at)
					default:
						at += rng.Uniform(0, 0.2)
						if at > horizon {
							at = rng.Uniform(0, horizon)
						}
					}
					sender := rng.Intn(model.N())
					r := rng.Uniform(50, 300)
					buf = med.ReceiversAt(at, sender, r, buf[:0])
					want := bruteReceivers(model, at, sender, r)
					if len(buf) != len(want) {
						t.Fatalf("query %d (t=%v sender=%d r=%g): got %d receivers, want %d\n got %v\nwant %v",
							q, at, sender, r, len(buf), len(want), buf, want)
					}
					for i := range want {
						if buf[i] != want[i] {
							t.Fatalf("query %d (t=%v sender=%d r=%g): receivers[%d] = %d, want %d",
								q, at, sender, r, i, buf[i], want[i])
						}
					}
				}
			})
		}
	}
}

// radialModel keeps node 0 at center and moves every other node straight
// toward (dir −1) or away from (dir +1) it at vmax: node i is dist[i] from
// the center at t0, so its positions at t0 and at t0+Δ are exactly vmax·Δ
// apart, the most the displacement bound allows.
type radialModel struct {
	center        geom.Point
	vmax, t0      float64
	dist, dir, th []float64
}

func (m *radialModel) N() int            { return len(m.dist) }
func (m *radialModel) Arena() geom.Rect  { return geom.Square(900) }
func (m *radialModel) MaxSpeed() float64 { return m.vmax }
func (m *radialModel) Horizon() float64  { return 100 }
func (m *radialModel) PositionAt(id int, t float64) geom.Point {
	if id == 0 {
		return m.center
	}
	return m.center.Add(geom.Polar(m.dist[id]+m.dir[id]*m.vmax*(t-m.t0), m.th[id]))
}

// innerDiscScene places receivers of node 0 (range r, queried disp/vmax
// after t0) on both sides of the inner disc's edge r − disp − ε and of r:
// inside the inner disc moving either way, just beyond it moving away,
// indexed inside r but moving out of range, and indexed outside r but
// moving into range.
func innerDiscScene(r, disp, vmax, t0 float64) *radialModel {
	in := r - disp - (1e-6 + 1e-9*r)
	m := &radialModel{center: geom.Pt(450, 450), vmax: vmax, t0: t0}
	add := func(dist, dir float64) {
		m.dist = append(m.dist, dist)
		m.dir = append(m.dir, dir)
		m.th = append(m.th, 0.7*float64(len(m.th)))
	}
	add(0, 0) // the sender
	for _, c := range []struct{ dist, dir float64 }{
		{in - 1e-7, +1}, {in - 1e-7, -1}, {in + 1e-7, +1}, {in + 1e-7, -1},
		{r - disp, +1}, {r - disp + 1e-4, +1}, {r - 1e-4, +1}, {r, +1},
		{r + disp - 1e-4, -1}, {r + disp + 1e-4, -1}, {r + 1e-4, -1},
	} {
		add(c.dist, c.dir)
	}
	return m
}

// TestReceiversAtInnerDiscBoundary drives the inner-disc shortcut at its
// edge: a grid built at t0 is queried disp/vmax later, with receivers
// displaced by exactly disp. The receiver set must equal the brute-force
// one, and the scene must put candidates on both sides of the shortcut.
func TestReceiversAtInnerDiscBoundary(t *testing.T) {
	const r, vmax, t0 = 250.0, 40.0, 1.0
	for _, dt := range []float64{0, 0.25, 0.5, 1.5} {
		disp := vmax * dt
		model := innerDiscScene(r, disp, vmax, t0)
		med, err := NewMedium(model, Config{}, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		med.DegreesAt(t0, make([]float64, model.N()), nil) // grid at exactly t0
		got := med.ReceiversAt(t0+dt, 0, r, nil)
		if med.gridAt != t0 { //lint:ignore float-eq the grid must be the one built at t0
			t.Fatalf("Δ=%g: grid rebuilt at %g, the query did not reuse the stale grid", dt, med.gridAt)
		}
		if want := bruteReceivers(model, t0+dt, 0, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("Δ=%g: receivers %v, brute force %v", dt, got, want)
		}
		shortcut, leaving := 0, 0
		in2, p := InnerRadius2(r, disp), model.center
		for id := 1; id < model.N(); id++ {
			stale2, exact2 := model.PositionAt(id, t0).Dist2(p), model.PositionAt(id, t0+dt).Dist2(p)
			if stale2 <= in2 {
				shortcut++
			}
			if stale2 <= r*r && exact2 > r*r {
				leaving++
			}
		}
		if shortcut < 2 || (dt > 0 && leaving < 2) {
			t.Fatalf("Δ=%g: vacuous scene: %d shortcut candidates, %d leaving range", dt, shortcut, leaving)
		}
	}
	if InnerRadius2(r, r) != -1 || InnerRadius2(r, r+1) != -1 { //lint:ignore float-eq -1 is the exact empty-disc sentinel
		t.Fatal("InnerRadius2 must be -1 once disp leaves no inner disc")
	}
}

// TestIDSetOrder checks the mark set against slices.Sort: marks added in
// any order, duplicates included, come back ascending and unique after any
// prefix already in dst, at the word edges (0, 63, 64, n−1) and for n not a
// multiple of 64, and leave every word zero.
func TestIDSetOrder(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{1, 63, 64, 65, 100, 130, 1000} {
		s := NewIDSet(n)
		if len(s) != (n+63)/64 {
			t.Fatalf("n=%d: %d words", n, len(s))
		}
		for trial := 0; trial < 50; trial++ {
			var ids []int
			for _, id := range []int{0, 63, 64, n - 1} {
				if id < n && rng.Intn(2) == 0 {
					ids = append(ids, id)
				}
			}
			for k := rng.Intn(n + 1); k > 0; k-- {
				ids = append(ids, rng.Intn(n))
			}
			for _, id := range ids {
				s.Add(id)
			}
			got := s.AppendSorted([]int{-7})
			want := append([]int(nil), ids...)
			slices.Sort(want)
			want = append([]int{-7}, slices.Compact(want)...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d: marks %v read back %v, want %v", n, ids, got, want)
			}
			for i, w := range s {
				if w != 0 {
					t.Fatalf("n=%d: word %d is %#x after AppendSorted, want 0", n, i, w)
				}
			}
		}
	}
}
