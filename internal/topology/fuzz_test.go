package topology

import (
	"fmt"
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
// early-exit search stops for a reason other than deciding by key.
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
	}
}

// FuzzSelectKernels checks every kernel with an early-exit search against
// its independent reference on fuzzed views: MST against Kruskal, SPT-2 and
// SPT-4 against viewGraph + graph.Dijkstra, and WeakRNG, WeakMST and
// WeakSPT against the historical dense implementations. One Scratch is
// shared, dirty, across the kernels of an input.
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
		for _, alpha := range []float64{2, 4} {
			sp := SPT{Alpha: alpha, Range: r}
			sameSet(t, fmt.Sprintf("%s range %g", sp.Name(), r), sp.SelectInto(v, nil, s), refSPTSelect(sp, v, squared))
			wsp := WeakSPT{Alpha: alpha, Range: r}
			sameSet(t, fmt.Sprintf("%s range %g", wsp.Name(), r), wsp.SelectWeakInto(mv, nil, s), refWeakSPTSelect(wsp, mv, squared))
		}
		wm := WeakMST{Range: r}
		sameSet(t, fmt.Sprintf("wMST range %g", r), wm.SelectWeakInto(mv, nil, s), refWeakMSTSelect(wm, mv, squared))
		sameSet(t, "wRNG", WeakRNG{}.SelectWeakInto(mv, nil, s), refWeakRNGSelect(mv, squared))
	})
}

// TestFuzzSeedsReachEdgeCases pins that FuzzSelectKernels' seed corpus
// holds a view with no neighbors, a view whose in-range graph is
// disconnected, a view with a neighbor beyond Range, and a view where MST
// and SPT-2 keep every neighbor.
func TestFuzzSeedsReachEdgeCases(t *testing.T) {
	var empty, disconnected, outOfRange, allKept bool
	for _, seed := range fuzzSelectSeeds() {
		mv, r, ok := decodeFuzzView(seed)
		if !ok {
			t.Fatalf("seed %x does not decode", seed)
		}
		v := newestView(mv)
		empty = empty || len(v.Neighbors) == 0
		_, _, g := viewGraph(v, r, squared, DistanceCost)
		disconnected = disconnected || !g.Connected()
		for _, nb := range v.Neighbors {
			outOfRange = outOfRange || (r > 0 && v.Self.Pos.Dist(nb.Pos) > r)
		}
		n := len(v.Neighbors)
		allKept = allKept || (n > 1 && len(MST{Range: r}.Select(v)) == n &&
			len(SPT{Alpha: 2, Range: r}.Select(v)) == n)
	}
	if !empty || !disconnected || !outOfRange || !allKept {
		t.Errorf("seed corpus misses an edge case: empty %v, disconnected %v, out of range %v, all kept %v",
			empty, disconnected, outOfRange, allKept)
	}
}
