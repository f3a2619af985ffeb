package topology

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mstc/internal/geom"
)

// decodeFuzzView turns fuzz bytes into a multi-position view and the range
// the kernels run with. data[0] sets the range (4 m steps, 0 = unbounded)
// and data[1] the history depth k ∈ {1, 2, 3} and Self's rank. Each node
// then takes k bytes: the first is its position on a 16×16 grid of 25 m
// cells, each further one an earlier position 5 m-snapped within 40 m of
// it. Snapping makes equal costs common, so every tie-break runs. Node i
// gets id 3i + (its first byte mod 3): ids ascend with gaps. At most 40
// nodes are decoded.
func decodeFuzzView(data []byte) (mv MultiView, maxRange float64, ok bool) {
	if len(data) < 3 {
		return MultiView{}, 0, false
	}
	maxRange = float64(data[0]) * 4
	k := 1 + int(data[1]%3)
	body := data[2:]
	n := len(body) / k
	if n > 40 {
		n = 40
	}
	if n == 0 {
		return MultiView{}, 0, false
	}
	selfAt := int(data[1]/3) % n
	for i := 0; i < n; i++ {
		b := body[i*k : i*k+k]
		p := geom.Pt(float64(b[0]&15)*25, float64(b[0]>>4)*25)
		pos := []geom.Point{p}
		for _, h := range b[1:] {
			pos = append(pos, geom.Pt(p.X+float64(int(h&15)-8)*5, p.Y+float64(int(h>>4)-8)*5))
		}
		nd := MultiNodeInfo{ID: 3*i + int(b[0]%3), Positions: pos}
		if i == selfAt {
			mv.Self = nd
		} else {
			mv.Neighbors = append(mv.Neighbors, nd)
		}
	}
	return mv, maxRange, true
}

// newestView is the strong view of mv: each node at its newest position.
func newestView(mv MultiView) View {
	v := View{Self: NodeInfo{ID: mv.Self.ID, Pos: mv.Self.Positions[0]}}
	for _, nb := range mv.Neighbors {
		v.Neighbors = append(v.Neighbors, NodeInfo{ID: nb.ID, Pos: nb.Positions[0]})
	}
	return v
}

// fuzzSelectSeeds is FuzzSelectKernels' seed corpus. Among them are
// disconnected views, views with neighbors beyond Range, views where every
// neighbor is kept and a view with no neighbors: the cases where an
// early-exit search stops for a reason other than deciding by key. Two
// more are MST views whose selection an exact weight tie decides.
// TestFuzzSeedsReachEdgeCases pins that they do.
func fuzzSelectSeeds() [][]byte {
	return [][]byte{
		// Self alone.
		{60, 0, 0x55},
		// Self at (125, 125) with four neighbors 25 m away on the axes:
		// every kernel keeps all of them.
		{0, 0, 0x55, 0x45, 0x54, 0x56, 0x65},
		// Two clusters 300 m apart, 40 m range: disconnected, and the far
		// cluster is out of range.
		{10, 0, 0x00, 0x01, 0x10, 0xcc, 0xcd, 0xdc},
		// A line of five nodes 50 m apart with 120 m range and k = 3.
		{30, 2, 0x00, 0x88, 0x99, 0x02, 0x78, 0x88, 0x04, 0x88, 0x87, 0x06, 0x89, 0x98, 0x08, 0x88, 0x88},
		// A dense tie-heavy 3×3 block, unbounded range, k = 2.
		{0, 4, 0x00, 0x80, 0x01, 0x88, 0x02, 0x81, 0x10, 0x88, 0x11, 0x18, 0x12, 0x88, 0x20, 0x88, 0x21, 0x88, 0x22, 0x8f},
		// Spread out over the grid at the paper's 250 m range (62 × 4 m).
		{62, 1, 0x00, 0x0f, 0xf0, 0xff, 0x37, 0x73, 0x5a, 0xa5, 0x19, 0x91, 0xc4, 0x4c, 0x66, 0x2e, 0xe2, 0x88},
		// MST relaxation tie: Self (id 3) at (0, 0), id 2 at (50, 0) and
		// id 6 at (25, 50), as far from id 2 as from Self. The id order
		// gives id 6's tree edge to id 2, so Self keeps only id 2.
		{0, 3, 0x02, 0x00, 0x21},
		// MST commit tie: Self (id 0) at (0, 0), id 4 at (25, 0), id 6 at
		// (25, 50) and id 11 at (0, 50). Once id 4 joins, ids 6 and 11 tie
		// at weight 2500; the id order commits Self's edge to id 11 first,
		// and id 11 then takes id 6's tree edge, so Self keeps ids 4 and 11.
		{0, 0, 0x00, 0x01, 0x21, 0x20},
		weakBoundaryCases[0].data,
		weakBoundaryCases[1].data,
	}
}

// weakBoundaryCases are k = 2 views in which a weak kernel's pair scan
// (maxDist2Within) meets one of its exit comparisons with equality, part
// way through the scan, and the selections each kernel must make there.
var weakBoundaryCases = []struct {
	name             string
	data             []byte // decodeFuzzView input
	wRNG, wMST, wSPT []int  // wSPT with alpha 2
}{
	{
		// Range 100 m. Self (id 0) at (0, 0), id 4 at (100, 0) and
		// (75, 0), id 7 at (175, 0). The edge 4–7 scans 75² twice, then
		// meets d² = 100² = R² exactly: that pair is within range, so
		// the scan runs on, the edge is usable, and the relay through
		// id 4 (bottleneck 100², sum 2·100²) beats the direct link to id
		// 7 (cMin 175²). Every kernel removes id 7.
		name: "pair at d² = R²",
		data: []byte{25, 1, 0x00, 0x88, 0x04, 0x83, 0x07, 0x88},
		wRNG: []int{4}, wMST: []int{4}, wSPT: []int{4},
	},
	{
		// Unbounded range. Self (id 2) at (100, 100), id 3 at (100, 125)
		// and (75, 125), id 6 at (175, 200): cMin(2, 6) = 125². The
		// pairs of 3–6 are 11250 twice, then 125² exactly. wMST's key
		// for id 6 is 125² from Self's row, so that pair ends the scan
		// without a relaxation; for wRNG the witness id 3 is not
		// strictly below cMin, so id 6 stays. wSPT's relay sum is above
		// 125² whatever the scan does. Every kernel keeps both.
		name: "pair at key[v] and at cMin",
		data: []byte{0, 1, 0x44, 0x88, 0x54, 0x83, 0x87, 0x88},
		wRNG: []int{3, 6}, wMST: []int{3, 6}, wSPT: []int{3, 6},
	},
}

// TestWeakKernelExitBoundaries runs the weak kernels on weakBoundaryCases
// and checks each selection against the hand-derived one and against the
// kernel's reference. A pair at d² = R² or at cMin decides the outcome:
// an exit on it taken the wrong way changes the selection. A pair at
// key[v] decides nothing, since max(du, key[v]) < key[v] fails either
// way, so that exit must only not change the key.
func TestWeakKernelExitBoundaries(t *testing.T) {
	for _, tc := range weakBoundaryCases {
		mv, r, ok := decodeFuzzView(tc.data)
		if !ok {
			t.Fatalf("%s: view does not decode", tc.name)
		}
		s := &Scratch{}
		wm, wsp := WeakMST{Range: r}, WeakSPT{Alpha: 2, Range: r}
		for _, c := range []struct {
			kernel    string
			got, want []int
			ref       []int
		}{
			{"wRNG", WeakRNG{}.SelectWeakInto(mv, nil, s), tc.wRNG, refWeakRNGSelect(mv, squared)},
			{"wMST", wm.SelectWeakInto(mv, nil, s), tc.wMST, refWeakMSTSelect(wm, mv, squared)},
			{"wSPT-2", wsp.SelectWeakInto(mv, nil, s), tc.wSPT, refWeakSPTSelect(wsp, mv, squared)},
		} {
			sameSet(t, tc.name+" "+c.kernel, c.got, c.want)
			sameSet(t, tc.name+" "+c.kernel+" reference", c.ref, c.want)
		}
	}
}

// energyCases are the (alpha, Fixed) pairs the SPT and WeakSPT oracle
// checks run: the paper's exponents 2 and 4, which the kernels compute
// without math.Pow, the exponents 1 and 2.5, which take the math.Pow
// fallback, and a positive per-hop Fixed cost.
var energyCases = []struct{ alpha, fixed float64 }{{2, 0}, {4, 0}, {1, 0}, {2.5, 0}, {2, 1000}}

// FuzzSelectKernels checks every kernel with an early-exit search against
// its independent reference on fuzzed views: MST against Kruskal, SPT
// against viewGraph + graph.Dijkstra for every energyCases entry, and
// WeakRNG, WeakMST and WeakSPT against the historical dense
// implementations. One Scratch is shared, dirty, across the kernels of an
// input.
func FuzzSelectKernels(f *testing.F) {
	for _, seed := range fuzzSelectSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mv, r, ok := decodeFuzzView(data)
		if !ok {
			return
		}
		v := newestView(mv)
		s := &Scratch{}
		m := MST{Range: r}
		sameSet(t, fmt.Sprintf("MST range %g", r), m.SelectInto(v, nil, s), kruskalMSTSelect(m, v, squared))
		for _, e := range energyCases {
			sp := SPT{Alpha: e.alpha, Fixed: e.fixed, Range: r}
			sameSet(t, fmt.Sprintf("%s fixed %g range %g", sp.Name(), e.fixed, r), sp.SelectInto(v, nil, s), refSPTSelect(sp, v, squared))
			wsp := WeakSPT{Alpha: e.alpha, Fixed: e.fixed, Range: r}
			sameSet(t, fmt.Sprintf("%s fixed %g range %g", wsp.Name(), e.fixed, r), wsp.SelectWeakInto(mv, nil, s), refWeakSPTSelect(wsp, mv, squared))
		}
		wm := WeakMST{Range: r}
		sameSet(t, fmt.Sprintf("wMST range %g", r), wm.SelectWeakInto(mv, nil, s), refWeakMSTSelect(wm, mv, squared))
		sameSet(t, "wRNG", WeakRNG{}.SelectWeakInto(mv, nil, s), refWeakRNGSelect(mv, squared))
	})
}

// TestFuzzSeedsReachEdgeCases pins that FuzzSelectKernels' seed corpus
// holds a view with no neighbors, a view whose in-range graph is
// disconnected, a view with a neighbor beyond Range, a view where MST
// and SPT-2 keep every neighbor, and views with both kinds of exact
// equal-weight MST candidate tie (mstCandidateTies): the only inputs on
// which the MST kernel calls mstLess.
func TestFuzzSeedsReachEdgeCases(t *testing.T) {
	var empty, disconnected, outOfRange, allKept, relaxTie, commitTie bool
	for _, seed := range fuzzSelectSeeds() {
		mv, r, ok := decodeFuzzView(seed)
		if !ok {
			t.Fatalf("seed %x does not decode", seed)
		}
		v := newestView(mv)
		empty = empty || len(v.Neighbors) == 0
		_, _, g := viewGraph(v, r, squared, func(l float64) float64 { return l })
		disconnected = disconnected || !g.Connected()
		for _, nb := range v.Neighbors {
			outOfRange = outOfRange || (r > 0 && v.Self.Pos.Dist(nb.Pos) > r)
		}
		n := len(v.Neighbors)
		allKept = allKept || (n > 1 && len(MST{Range: r}.Select(v)) == n &&
			len(SPT{Alpha: 2, Range: r}.Select(v)) == n)
		relax, commit := mstCandidateTies(v, r)
		relaxTie, commitTie = relaxTie || relax, commitTie || commit
	}
	if !empty || !disconnected || !outOfRange || !allKept || !relaxTie || !commitTie {
		t.Errorf("seed corpus misses an edge case: empty %v, disconnected %v, out of range %v, all kept %v, "+
			"MST relaxation tie %v, MST commit tie %v", empty, disconnected, outOfRange, allKept, relaxTie, commitTie)
	}
}

// mstCandidateTies replays Prim from Self over v's links of squared length
// within r², ordered by LinkLess over real ids, up to the step after which
// no node outside the tree has its best candidate edge at Self (where
// MST.SelectInto stops). relax reports a relaxed edge whose weight exactly
// ties the far end's best candidate edge; commit reports two nodes whose
// best candidate edges tie exactly at the smallest weight of a step.
func mstCandidateTies(v View, r float64) (relax, commit bool) {
	nodes := append([]NodeInfo{v.Self}, v.Neighbors...)
	bound := squared.bound(r)
	bestW := make([]float64, len(nodes))
	bestFrom := make([]int, len(nodes)) // -1: no candidate edge yet
	inTree := make([]bool, len(nodes))
	for i := range nodes {
		bestW[i], bestFrom[i] = math.Inf(1), -1
	}
	less := func(a, b int) bool { // a's candidate edge before b's
		return LinkLess(bestW[a], nodes[bestFrom[a]].ID, nodes[a].ID, bestW[b], nodes[bestFrom[b]].ID, nodes[b].ID)
	}
	for u := 0; ; {
		inTree[u] = true
		for nb, x := range nodes {
			w := nodes[u].Pos.Dist2(x.Pos)
			if inTree[nb] || w > bound {
				continue
			}
			relax = relax || (bestFrom[nb] >= 0 && w == bestW[nb])
			if bestFrom[nb] < 0 || LinkLess(w, nodes[u].ID, x.ID, bestW[nb], nodes[bestFrom[nb]].ID, x.ID) {
				bestW[nb], bestFrom[nb] = w, u
			}
		}
		next, atSelf := -1, false
		for nb := range nodes {
			if inTree[nb] || bestFrom[nb] < 0 {
				continue
			}
			atSelf = atSelf || bestFrom[nb] == 0
			if next < 0 || less(nb, next) {
				next = nb
			}
		}
		if !atSelf {
			return relax, commit
		}
		for nb := range nodes {
			commit = commit || (nb != next && !inTree[nb] && bestFrom[nb] >= 0 && bestW[nb] == bestW[next])
		}
		u = next
	}
}

// TestWeakKernelsEmptyPositionSets gives a neighbor, and then Self, no
// stored position. A link to an empty set has cost +Inf (maxDist2), so it
// must neither relay nor be removed: the neighbor stays selected, by each
// kernel and by its reference, with or without a range bound.
func TestWeakKernelsEmptyPositionSets(t *testing.T) {
	pts := func(ps ...geom.Point) []geom.Point { return ps }
	views := []MultiView{{
		Self: MultiNodeInfo{ID: 0, Positions: pts(geom.Pt(0, 0), geom.Pt(0, 5))},
		Neighbors: []MultiNodeInfo{
			{ID: 1, Positions: pts(geom.Pt(50, 0), geom.Pt(55, 0))},
			{ID: 2},
			{ID: 3, Positions: pts(geom.Pt(100, 0))},
		},
	}, {
		Self: MultiNodeInfo{ID: 2},
		Neighbors: []MultiNodeInfo{
			{ID: 1, Positions: pts(geom.Pt(50, 0))},
			{ID: 3, Positions: pts(geom.Pt(100, 0))},
		},
	}}
	for i, mv := range views {
		for _, r := range []float64{0, 250} {
			s := &Scratch{}
			wm, wsp := WeakMST{Range: r}, WeakSPT{Alpha: 2, Range: r}
			for _, c := range []struct {
				kernel   string
				got, ref []int
			}{
				{"wRNG", WeakRNG{}.SelectWeakInto(mv, nil, s), refWeakRNGSelect(mv, squared)},
				{"wMST", wm.SelectWeakInto(mv, nil, s), refWeakMSTSelect(wm, mv, squared)},
				{"wSPT-2", wsp.SelectWeakInto(mv, nil, s), refWeakSPTSelect(wsp, mv, squared)},
			} {
				label := fmt.Sprintf("view %d range %g %s", i, r, c.kernel)
				sameSet(t, label, c.got, c.ref)
				for _, nb := range mv.Neighbors {
					if (len(nb.Positions) == 0 || len(mv.Self.Positions) == 0) && !slices.Contains(c.got, nb.ID) {
						t.Errorf("%s: removed id %d across an empty position set: %v", label, nb.ID, c.got)
					}
				}
			}
		}
	}
}
