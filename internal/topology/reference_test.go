package topology

import (
	"container/heap"
	"math"
	"sort"

	"mstc/internal/geom"
	"mstc/internal/graph"
)

// This file holds the independent reference implementations the scratch
// kernels are tested against. None of them shares code with a kernel.

// metric is the link-length convention an oracle computes in. squared is
// the kernels' own: a link's cost is a function of its squared length
// and ranges bound d². hypot is the direct formulation: costs over
// math.Hypot distances. Both order links the same way, so the kernels
// must match an oracle under either, except where two costs tie exactly
// under one convention and not under the other.
type metric struct {
	length func(p, q geom.Point) float64  // a link's length, d² or d
	bound  func(r float64) float64        // range r in length units, +Inf if unbounded (r <= 0 or +Inf)
	energy func(l, alpha float64) float64 // d^alpha from a length
}

var (
	squared = metric{
		length: geom.Point.Dist2,
		bound: func(r float64) float64 {
			if r <= 0 || math.IsInf(r, 1) {
				return math.Inf(1)
			}
			return r * r
		},
		energy: func(d2, alpha float64) float64 { return math.Pow(d2, alpha/2) },
	}
	hypot = metric{
		length: geom.Point.Dist,
		bound: func(r float64) float64 {
			if r <= 0 {
				return math.Inf(1)
			}
			return r
		},
		energy: math.Pow,
	}
)

// lengthRange returns the extrema of m.length over every pair of a point
// of a and a point of b (+Inf for both if either set is empty).
func (m metric) lengthRange(a, b []geom.Point) (lMin, lMax float64) {
	lMin, lMax = math.Inf(1), math.Inf(-1)
	for _, p := range a {
		for _, q := range b {
			l := m.length(p, q)
			lMin, lMax = math.Min(lMin, l), math.Max(lMax, l)
		}
	}
	if math.IsInf(lMax, -1) {
		return math.Inf(1), math.Inf(1)
	}
	return lMin, lMax
}

// viewGraph builds the local-view graph used by the SPT reference. View
// nodes are indexed in ascending real-id order so that the index-based
// tie-breaking inside package graph coincides with the paper's global
// id-based total order. An edge joins two view nodes iff their length
// under m is within maxRange, weighted by cost(length). It returns the
// index→id table, Self's index, and the graph.
func viewGraph(v View, maxRange float64, m metric, cost func(l float64) float64) (ids []int, selfIdx int, g *graph.Undirected) {
	n := len(v.Neighbors) + 1
	ids = make([]int, 0, n)
	pts := make([]geom.Point, 0, n)
	selfIdx = -1
	// v is canonical: neighbors ascend by id. Insert Self in id order.
	for _, nb := range v.Neighbors {
		if selfIdx == -1 && v.Self.ID < nb.ID {
			selfIdx = len(ids)
			ids = append(ids, v.Self.ID)
			pts = append(pts, v.Self.Pos)
		}
		ids = append(ids, nb.ID)
		pts = append(pts, nb.Pos)
	}
	if selfIdx == -1 {
		selfIdx = len(ids)
		ids = append(ids, v.Self.ID)
		pts = append(pts, v.Self.Pos)
	}
	g = graph.NewUndirected(n)
	bound := m.bound(maxRange)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if l := m.length(pts[i], pts[j]); l <= bound {
				g.AddEdge(i, j, cost(l))
			}
		}
	}
	return ids, selfIdx, g
}

// kruskalMST is the MST oracle: Kruskal's algorithm over every pair of
// nodes within maxRange (<= 0 or +Inf means unbounded), edges sorted by
// LinkLess over their lengths under m on the real ids and committed
// through a union-find. Under that strict total order the minimum spanning
// forest is unique. It returns the forest's edges as real-id pairs.
func kruskalMST(ids []int, pts []geom.Point, maxRange float64, m metric) [][2]int {
	type edge struct {
		c    float64
		a, b int // indices into ids / pts
	}
	var es []edge
	bound := m.bound(maxRange)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if l := m.length(pts[i], pts[j]); l <= bound {
				es = append(es, edge{l, i, j})
			}
		}
	}
	sort.Slice(es, func(x, y int) bool {
		return LinkLess(es[x].c, ids[es[x].a], ids[es[x].b], es[y].c, ids[es[y].a], ids[es[y].b])
	})
	uf := graph.NewUnionFind(len(pts))
	var tree [][2]int
	for _, e := range es {
		if uf.Union(e.a, e.b) {
			tree = append(tree, [2]int{ids[e.a], ids[e.b]})
		}
	}
	return tree
}

// treeNeighbors returns the ids adjacent to id in tree, ascending.
func treeNeighbors(tree [][2]int, id int) []int {
	var out []int
	for _, e := range tree {
		switch id {
		case e[0]:
			out = append(out, e[1])
		case e[1]:
			out = append(out, e[0])
		}
	}
	sort.Ints(out)
	return out
}

// kruskalMSTSelect is MST selection by the oracle: Self's neighbors in the
// Kruskal forest of its view.
func kruskalMSTSelect(mst MST, v View, m metric) []int {
	ids := []int{v.Self.ID}
	pts := []geom.Point{v.Self.Pos}
	for _, nb := range v.Neighbors {
		ids = append(ids, nb.ID)
		pts = append(pts, nb.Pos)
	}
	return treeNeighbors(kruskalMST(ids, pts, mst.Range, m), v.Self.ID)
}

// refRNGSelect is RNG selection by definition: link (u, v) is removed iff
// some witness w has both links to it strictly below (u, v) in LinkLess
// over lengths under m.
func refRNGSelect(v View, m metric) []int {
	u := v.Self
	var out []int
	for _, n := range v.Neighbors {
		cUV := m.length(u.Pos, n.Pos)
		removed := false
		for _, w := range v.Neighbors {
			if w.ID != n.ID &&
				LinkLess(m.length(u.Pos, w.Pos), u.ID, w.ID, cUV, u.ID, n.ID) &&
				LinkLess(m.length(w.Pos, n.Pos), w.ID, n.ID, cUV, u.ID, n.ID) {
				removed = true
			}
		}
		if !removed {
			out = append(out, n.ID)
		}
	}
	return out
}

// multiGraph is the dense pessimistic-cost graph over a MultiView: nodes in
// ascending id order, edge weight = cMax, edges restricted to pairs whose
// largest length certifies the link exists (within Range). It is the
// reference implementation the weak scratch kernels are tested against.
type multiGraph struct {
	ids     []int
	idx     map[int]int
	selfIdx int
	w       [][]float64 // cMax, +Inf if unusable
}

func newMultiGraph(v MultiView, maxRange float64, m metric, cost func(l float64) float64) *multiGraph {
	n := len(v.Neighbors) + 1
	type entry struct {
		id  int
		pos []geom.Point
	}
	entries := make([]entry, 0, n)
	placed := false
	for _, nb := range v.Neighbors {
		if !placed && v.Self.ID < nb.ID {
			entries = append(entries, entry{v.Self.ID, v.Self.Positions})
			placed = true
		}
		entries = append(entries, entry{nb.ID, nb.Positions})
	}
	if !placed {
		entries = append(entries, entry{v.Self.ID, v.Self.Positions})
	}
	mg := &multiGraph{
		ids: make([]int, n),
		idx: make(map[int]int, n),
		w:   make([][]float64, n),
	}
	bound := m.bound(maxRange)
	for i, e := range entries {
		mg.ids[i] = e.id
		mg.idx[e.id] = i
		if e.id == v.Self.ID {
			mg.selfIdx = i
		}
		mg.w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		mg.w[i][i] = 0
		for j := i + 1; j < n; j++ {
			cMax := math.Inf(1)
			if _, lMax := m.lengthRange(entries[i].pos, entries[j].pos); lMax <= bound {
				cMax = cost(lMax)
			}
			mg.w[i][j] = cMax
			mg.w[j][i] = cMax
		}
	}
	return mg
}

// minimaxFromSelf returns, per node index, the minimal over paths from self
// of the maximal edge weight along the path (bottleneck shortest path).
func (mg *multiGraph) minimaxFromSelf() []float64 {
	n := len(mg.ids)
	key := make([]float64, n)
	done := make([]bool, n)
	for i := range key {
		key[i] = math.Inf(1)
	}
	key[mg.selfIdx] = 0
	pq := &f64Heap{{node: mg.selfIdx, key: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(f64Item)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if v == u || done[v] {
				continue
			}
			nk := math.Max(key[u], mg.w[u][v])
			if nk < key[v] {
				key[v] = nk
				heap.Push(pq, f64Item{node: v, key: nk})
			}
		}
	}
	return key
}

// shortestFromSelf returns additive shortest-path distances from self over
// the pessimistic weights.
func (mg *multiGraph) shortestFromSelf() []float64 {
	n := len(mg.ids)
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[mg.selfIdx] = 0
	pq := &f64Heap{{node: mg.selfIdx, key: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(f64Item)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for v := 0; v < n; v++ {
			if v == u || done[v] || math.IsInf(mg.w[u][v], 1) {
				continue
			}
			if nd := dist[u] + mg.w[u][v]; nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, f64Item{node: v, key: nd})
			}
		}
	}
	return dist
}

type f64Item struct {
	node int
	key  float64
}

type f64Heap []f64Item

func (h f64Heap) Len() int { return len(h) }
func (h f64Heap) Less(i, j int) bool {
	if h[i].key != h[j].key { //lint:ignore float-eq exact compare keeps the heap's total order deterministic
		return h[i].key < h[j].key
	}
	return h[i].node < h[j].node
}
func (h f64Heap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *f64Heap) Push(x any)   { *h = append(*h, x.(f64Item)) }
func (h *f64Heap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
