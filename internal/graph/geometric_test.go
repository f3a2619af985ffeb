package graph

import (
	"math"
	"testing"
	"testing/quick"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

var arena = geom.Square(900)

func randomPoints(seed uint64, n int) []geom.Point {
	return mobility.UniformPoints(arena, n, xrand.New(seed))
}

// euclideanMST is the minimum spanning tree of the complete Euclidean graph
// over pts: the ground truth a localized MST protocol is compared against.
func euclideanMST(pts []geom.Point) []Edge {
	edges, _ := PrimMST(UnitDisk(pts, math.Inf(1)))
	return edges
}

func TestUnitDisk(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(300, 0)}
	g := UnitDisk(pts, 250)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("expected edges missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("edge beyond range present")
	}
	if w, _ := g.Weight(0, 1); w != 100 {
		t.Errorf("weight = %v", w)
	}
}

func TestRNGSubsetOfUnitDisk(t *testing.T) {
	pts := randomPoints(1, 80)
	ud := UnitDisk(pts, 250)
	rng := RNGGraph(pts, 250)
	for _, e := range rng.Edges() {
		if !ud.HasEdge(e.U, e.V) {
			t.Fatalf("RNG edge (%d,%d) not in unit disk", e.U, e.V)
		}
	}
	if rng.M() > ud.M() {
		t.Error("RNG has more edges than the unit-disk graph")
	}
}

func TestGraphInclusionChain(t *testing.T) {
	// Classic inclusion: EMST ⊆ RNG ⊆ Gabriel ⊆ Delaunay. We verify
	// MST ⊆ RNG ⊆ GG on random instances with full range.
	f := func(seed uint64) bool {
		pts := randomPoints(seed, 40)
		const r = 1e9 // unrestricted
		rngG := RNGGraph(pts, r)
		gg := GabrielGraph(pts, r)
		for _, e := range rngG.Edges() {
			if !gg.HasEdge(e.U, e.V) {
				return false
			}
		}
		for _, e := range euclideanMST(pts) {
			if !rngG.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRNGConnectivityPreserved(t *testing.T) {
	// If the unit-disk graph is connected, RNG restricted to the same
	// range must stay connected (link-removal condition 1 preserves
	// connectivity).
	f := func(seed uint64) bool {
		pts := randomPoints(seed, 100)
		ud := UnitDisk(pts, 250)
		if !ud.Connected() {
			return true // vacuous
		}
		return RNGGraph(pts, 250).Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGabrielConnectivityPreserved(t *testing.T) {
	f := func(seed uint64) bool {
		pts := randomPoints(seed, 100)
		ud := UnitDisk(pts, 250)
		if !ud.Connected() {
			return true
		}
		return GabrielGraph(pts, 250).Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEuclideanMSTIsSpanningAndMinimal(t *testing.T) {
	pts := randomPoints(3, 60)
	edges := euclideanMST(pts)
	if len(edges) != len(pts)-1 {
		t.Fatalf("MST edges = %d, want %d", len(edges), len(pts)-1)
	}
	uf := NewUnionFind(len(pts))
	for _, e := range edges {
		uf.Union(e.U, e.V)
	}
	if uf.Sets() != 1 {
		t.Error("MST does not span")
	}
	// Cut property spot check: every MST edge is the lightest across
	// the cut it defines when removed.
	total := weightSum(edges)
	for _, cut := range edges[:5] {
		uf := NewUnionFind(len(pts))
		for _, e := range edges {
			if e != cut {
				uf.Union(e.U, e.V)
			}
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if !uf.Same(i, j) && pts[i].Dist(pts[j]) < cut.W-1e-9 {
					t.Fatalf("edge (%d,%d) lighter than MST edge across cut", i, j)
				}
			}
		}
	}
	_ = total
}

func TestMSTSubsetOfRNGRestrictedRange(t *testing.T) {
	// With range restriction the EMST may not be realizable, but whenever
	// the unit-disk graph is connected, the MST of the unit-disk graph
	// equals the EMST (geometric fact: EMST edges are the shortest
	// possible, all <= the connectivity radius... verify directly).
	pts := randomPoints(5, 100)
	ud := UnitDisk(pts, 250)
	if !ud.Connected() {
		t.Skip("instance not connected")
	}
	udMST, spanning := PrimMST(ud)
	if !spanning {
		t.Fatal("unit-disk MST must span when graph connected")
	}
	em := euclideanMST(pts)
	if weightSum(udMST)-weightSum(em) > 1e-6 {
		t.Errorf("unit-disk MST weight %v > EMST weight %v", weightSum(udMST), weightSum(em))
	}
}

func BenchmarkRNGGraph100(b *testing.B) {
	pts := randomPoints(1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RNGGraph(pts, 250)
	}
}

func BenchmarkUnitDisk100(b *testing.B) {
	pts := randomPoints(1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnitDisk(pts, 250)
	}
}

// TestGabrielPlanarity: the Gabriel graph (and hence RNG ⊆ GG) is planar
// in the geometric sense — no two edges cross except at shared endpoints.
// Face routing's delivery guarantee rests on this.
func TestGabrielPlanarity(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		pts := randomPoints(seed*317+3, 70)
		g := GabrielGraph(pts, 250)
		es := g.Edges()
		for i := range es {
			for j := i + 1; j < len(es); j++ {
				a, b := es[i], es[j]
				if a.U == b.U || a.U == b.V || a.V == b.U || a.V == b.V {
					continue // shared endpoint
				}
				if _, crosses := geom.SegmentIntersection(
					pts[a.U], pts[a.V], pts[b.U], pts[b.V]); crosses {
					t.Fatalf("seed %d: GG edges (%d,%d) and (%d,%d) cross",
						seed, a.U, a.V, b.U, b.V)
				}
			}
		}
	}
}
