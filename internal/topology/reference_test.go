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

// viewGraph builds the local-view graph used by the MST and SPT
// references. View nodes are indexed in ascending real-id order so that
// the index-based tie-breaking inside package graph coincides with the
// paper's global id-based total order. An edge joins two view nodes iff
// their distance is at most maxRange (maxRange <= 0 or +Inf means
// unbounded), weighted by fn(distance). It returns the index→id table,
// Self's index, and the graph.
func viewGraph(v View, maxRange float64, fn CostFn) (ids []int, selfIdx int, g *graph.Undirected) {
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
	r2 := maxRange * maxRange
	if maxRange <= 0 || math.IsInf(maxRange, 1) {
		r2 = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pts[i].Dist2(pts[j]) <= r2 {
				g.AddEdge(i, j, fn(pts[i].Dist(pts[j])))
			}
		}
	}
	return ids, selfIdx, g
}

// kruskalMST is the MST oracle: Kruskal's algorithm over every pair of
// nodes within maxRange (<= 0 or +Inf means unbounded), edges sorted by
// LinkLess on the real ids and committed through a union-find. Under that
// strict total order the minimum spanning forest is unique. It returns the
// forest's edges as real-id pairs.
func kruskalMST(ids []int, pts []geom.Point, maxRange float64) [][2]int {
	type edge struct {
		c    float64
		a, b int // indices into ids / pts
	}
	var es []edge
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist(pts[j])
			if maxRange <= 0 || math.IsInf(maxRange, 1) || pts[i].Dist2(pts[j]) <= maxRange*maxRange {
				es = append(es, edge{d, i, j})
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
func kruskalMSTSelect(m MST, v View) []int {
	ids := []int{v.Self.ID}
	pts := []geom.Point{v.Self.Pos}
	for _, nb := range v.Neighbors {
		ids = append(ids, nb.ID)
		pts = append(pts, nb.Pos)
	}
	return treeNeighbors(kruskalMST(ids, pts, m.Range), v.Self.ID)
}

// multiGraph is the dense pessimistic-cost graph over a MultiView: nodes in
// ascending id order, edge weight = cMax, edges restricted to pairs whose
// cMax certifies the link exists (cMax <= fn(Range)). It is the reference
// implementation the weak scratch kernels are tested against.
type multiGraph struct {
	ids     []int
	idx     map[int]int
	selfIdx int
	w       [][]float64 // cMax, +Inf if unusable
}

func newMultiGraph(v MultiView, maxRange float64, fn CostFn) *multiGraph {
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
	limit := math.Inf(1)
	if maxRange > 0 && !math.IsInf(maxRange, 1) {
		limit = fn(maxRange)
	}
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
			_, cMax := CostRange(entries[i].pos, entries[j].pos, fn)
			if cMax > limit {
				cMax = math.Inf(1)
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
