package topology

import (
	"reflect"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/graph"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

var arena = geom.Square(900)

const normalRange = 250.0

// viewOf builds node u's canonical consistent local view from true
// positions: all nodes within normalRange are 1-hop neighbors.
func viewOf(pts []geom.Point, u int, r float64) View {
	v := View{Self: NodeInfo{ID: u, Pos: pts[u]}}
	for i, p := range pts {
		if i != u && pts[u].Dist(p) <= r {
			v.Neighbors = append(v.Neighbors, NodeInfo{ID: i, Pos: p})
		}
	}
	return v.Canon()
}

// logicalAND builds the logical topology with the framework's semantics:
// a link survives iff neither endpoint removed it.
func logicalAND(pts []geom.Point, p Protocol, r float64) *graph.Undirected {
	n := len(pts)
	sel := make([][]int, n)
	for u := 0; u < n; u++ {
		sel[u] = p.Select(viewOf(pts, u, r))
	}
	has := func(s []int, x int) bool {
		for _, v := range s {
			if v == x {
				return true
			}
		}
		return false
	}
	g := graph.NewUndirected(n)
	for u := 0; u < n; u++ {
		for _, v := range sel[u] {
			if v > u && has(sel[v], u) {
				g.AddEdge(u, v, pts[u].Dist(pts[v]))
			}
		}
	}
	return g
}

func connectedPoints(t *testing.T, seed uint64, n int) []geom.Point {
	t.Helper()
	for s := seed; ; s++ {
		pts := mobility.UniformPoints(arena, n, xrand.New(s))
		if graph.UnitDisk(pts, normalRange).Connected() {
			return pts
		}
	}
}

func TestRNGSelectCollinear(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(10, 0)}
	v := viewOf(pts, 0, 100)
	got := RNG{}.Select(v)
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("RNG select for node 0 = %v, want [1] (middle node witnesses the long link)", got)
	}
	got = RNG{}.Select(viewOf(pts, 1, 100))
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("RNG select for node 1 = %v, want [0 2]", got)
	}
}

func TestRNGTieBreakSymmetric(t *testing.T) {
	// An exact integer tie: links 0–1 and 0–2 both have d² = 25, link 1–2
	// has d² = 20. With id tie-breaking, 0–2 is the largest link in the
	// total order and witness 1 removes it; 0–1 and 1–2 survive. The
	// logical topology must stay connected — without tie-breaking both
	// equal-cost links at node 0 could vanish and cut it off.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(3, 4)}
	g := logicalAND(pts, RNG{}, 100)
	if !g.Connected() {
		t.Fatal("tied triangle disconnected under RNG with tie-breaking")
	}
	if g.HasEdge(0, 2) {
		t.Error("the (0,2) link has the largest tie-broken cost and must be removed")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Errorf("links (0,1) and (1,2) must be kept, got %v", g.Edges())
	}
}

func TestGabrielKeepsMoreThanRNG(t *testing.T) {
	pts := connectedPoints(t, 1, 60)
	rng := logicalAND(pts, RNG{}, normalRange)
	gg := logicalAND(pts, Gabriel{}, normalRange)
	for _, e := range rng.Edges() {
		if !gg.HasEdge(e.U, e.V) {
			t.Fatalf("RNG edge (%d,%d) missing from Gabriel", e.U, e.V)
		}
	}
	if gg.M() < rng.M() {
		t.Error("Gabriel selected fewer links than RNG")
	}
}

func TestRNGMatchesCentralized(t *testing.T) {
	// On a static network with consistent views, the localized RNG
	// protocol must produce exactly the centralized RNG graph.
	for seed := uint64(0); seed < 5; seed++ {
		pts := connectedPoints(t, seed*100+1, 80)
		got := logicalAND(pts, RNG{}, normalRange)
		want := graph.RNGGraph(pts, normalRange)
		ge, we := got.Edges(), want.Edges()
		if len(ge) != len(we) {
			t.Fatalf("seed %d: %d edges, centralized %d", seed, len(ge), len(we))
		}
		for i := range ge {
			if ge[i].U != we[i].U || ge[i].V != we[i].V {
				t.Fatalf("seed %d: edge %d = (%d,%d), want (%d,%d)",
					seed, i, ge[i].U, ge[i].V, we[i].U, we[i].V)
			}
		}
	}
}

func TestGabrielMatchesCentralized(t *testing.T) {
	pts := connectedPoints(t, 7, 80)
	got := logicalAND(pts, Gabriel{}, normalRange)
	want := graph.GabrielGraph(pts, normalRange)
	if !reflect.DeepEqual(edgePairs(got), edgePairs(want)) {
		t.Error("localized Gabriel differs from centralized Gabriel graph")
	}
}

func edgePairs(g *graph.Undirected) [][2]int {
	es := g.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

func TestMSTSelectTriangle(t *testing.T) {
	// Triangle 0-1 (3), 1-2 (4), 0-2 (5): local MST at node 0 keeps (0,1)
	// and (1,2), so 0's logical neighbors = {1}.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(3, 4)}
	got := MST{Range: 100}.Select(viewOf(pts, 0, 100))
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("MST select = %v, want [1]", got)
	}
	got = MST{Range: 100}.Select(viewOf(pts, 1, 100))
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("MST select for middle node = %v, want [0 2]", got)
	}
}

func TestMSTRangeRestrictsRelayEdges(t *testing.T) {
	// Node 0 sees 1 and 2, but 1 and 2 are out of range of each other:
	// the local MST cannot relay through the (1,2) edge.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 200), geom.Pt(0, -200)}
	got := MST{Range: 250}.Select(viewOf(pts, 0, 250))
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("MST select = %v, want [1 2] (relay edge (1,2) beyond range)", got)
	}
}

func TestMSTDegreeBound(t *testing.T) {
	// Li/Hou/Sha: LMST logical degree is at most 6.
	for seed := uint64(0); seed < 10; seed++ {
		pts := connectedPoints(t, seed*31+3, 100)
		p := MST{Range: normalRange}
		for u := range pts {
			if got := p.Select(viewOf(pts, u, normalRange)); len(got) > 6 {
				t.Fatalf("seed %d node %d: LMST degree %d > 6", seed, u, len(got))
			}
		}
	}
}

func TestSPTSelectRelay(t *testing.T) {
	// Direct link 0-1 of length 10 vs relay via 2 near the midpoint:
	// with alpha=2, 5^2+5.1^2 = 51.01 < 100, so SPT removes the direct
	// link; with a fixed per-hop cost of 50 the relay path costs
	// 151 > 150 and the direct link survives.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 1)}
	v := viewOf(pts, 0, 100)
	got := SPT{Alpha: 2, Range: 100}.Select(v)
	want := []int{2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SPT-2 select = %v, want %v", got, want)
	}
	got = SPT{Alpha: 2, Fixed: 50, Range: 100}.Select(v)
	want = []int{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SPT-2+fixed select = %v, want %v", got, want)
	}
}

func TestSPTAlpha4RemovesMoreThanAlpha2(t *testing.T) {
	// Higher path-loss exponent makes relaying cheaper relative to direct
	// transmission, so SPT-4 keeps a subset of SPT-2's links... wait:
	// alpha=4 penalizes long links harder, removing *more* direct links.
	pts := connectedPoints(t, 11, 80)
	g2 := logicalAND(pts, SPT{Alpha: 2, Range: normalRange}, normalRange)
	g4 := logicalAND(pts, SPT{Alpha: 4, Range: normalRange}, normalRange)
	for _, e := range g4.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("SPT-4 edge (%d,%d) not kept by SPT-2", e.U, e.V)
		}
	}
	if g4.M() >= g2.M() {
		t.Errorf("SPT-4 edges (%d) should be fewer than SPT-2 (%d)", g4.M(), g2.M())
	}
}

func TestYaoSelect(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0),   // self
		geom.Pt(10, 1),  // cone 0, near
		geom.Pt(20, 2),  // cone 0, far
		geom.Pt(-5, 10), // different cone
	}
	got := Yao{K: 6}.Select(viewOf(pts, 0, 100))
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("Yao select = %v, want [1 3]", got)
	}
}

func TestYaoPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Yao{K: 0}.Select(View{})
}

func TestYaoDegreeAtMostK(t *testing.T) {
	pts := connectedPoints(t, 13, 100)
	p := Yao{K: 6}
	for u := range pts {
		if got := p.Select(viewOf(pts, u, normalRange)); len(got) > 6 {
			t.Fatalf("node %d: Yao degree %d > 6", u, len(got))
		}
	}
}

func TestNoneSelectsAll(t *testing.T) {
	pts := connectedPoints(t, 17, 50)
	v := viewOf(pts, 0, normalRange)
	got := None{}.Select(v)
	if len(got) != len(v.Neighbors) {
		t.Errorf("None selected %d of %d", len(got), len(v.Neighbors))
	}
}

func TestSelectionsSubsetOfView(t *testing.T) {
	pts := connectedPoints(t, 19, 80)
	protos := append(Baselines(normalRange), Gabriel{}, Yao{K: 6}, None{})
	for _, p := range protos {
		for u := 0; u < len(pts); u += 7 {
			v := viewOf(pts, u, normalRange)
			inView := map[int]bool{}
			for _, n := range v.Neighbors {
				inView[n.ID] = true
			}
			prev := -1
			for _, id := range p.Select(v) {
				if !inView[id] {
					t.Fatalf("%s selected %d not in view of %d", p.Name(), id, u)
				}
				if id <= prev {
					t.Fatalf("%s selection not strictly ascending", p.Name())
				}
				prev = id
			}
		}
	}
}

func TestProtocolNames(t *testing.T) {
	cases := map[string]string{
		MST{}.Name():               "MST",
		RNG{}.Name():               "RNG",
		Gabriel{}.Name():           "GG",
		SPT{Alpha: 2}.Name():       "SPT-2",
		SPT{Alpha: 4}.Name():       "SPT-4",
		SPT{Alpha: 2.5}.Name():     "SPT-2.5",
		Yao{K: 6}.Name():           "Yao-6",
		None{}.Name():              "none",
		WeakRNG{}.Name():           "wRNG",
		WeakMST{}.Name():           "wMST",
		WeakSPT{Alpha: 2}.Name():   "wSPT-2",
		WeakSPT{Alpha: 1.5}.Name(): "wSPT-1.5",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"MST", "RNG", "GG", "SPT-2", "SPT-4", "Yao-6", "none"} {
		p, err := ByName(name, normalRange)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("bogus", normalRange); err == nil {
		t.Error("unknown name accepted")
	}
	for _, name := range []string{"MST", "RNG", "SPT-2", "SPT-4"} {
		if _, err := WeakByName(name, normalRange); err != nil {
			t.Errorf("WeakByName(%q): %v", name, err)
		}
	}
	if _, err := WeakByName("GG", normalRange); err == nil {
		t.Error("WeakByName should reject GG")
	}
}

func TestBaselinesOrder(t *testing.T) {
	names := []string{}
	for _, p := range Baselines(normalRange) {
		names = append(names, p.Name())
	}
	want := []string{"MST", "RNG", "SPT-4", "SPT-2"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Baselines = %v, want %v", names, want)
	}
}

func TestViewCanon(t *testing.T) {
	v := View{
		Self: NodeInfo{ID: 5, Pos: geom.Pt(0, 0)},
		Neighbors: []NodeInfo{
			{ID: 9, Pos: geom.Pt(1, 0)},
			{ID: 2, Pos: geom.Pt(2, 0)},
			{ID: 9, Pos: geom.Pt(3, 0)}, // duplicate: first kept
			{ID: 5, Pos: geom.Pt(4, 0)}, // self: dropped
		},
	}
	c := v.Canon()
	if len(c.Neighbors) != 2 || c.Neighbors[0].ID != 2 || c.Neighbors[1].ID != 9 {
		t.Fatalf("Canon = %+v", c.Neighbors)
	}
	if c.Neighbors[1].Pos != geom.Pt(1, 0) {
		t.Error("Canon must keep the first occurrence of a duplicate id")
	}
	if _, ok := c.Find(2); !ok {
		t.Error("Find(2) failed")
	}
	if _, ok := c.Find(77); ok {
		t.Error("Find(77) should fail")
	}
}
