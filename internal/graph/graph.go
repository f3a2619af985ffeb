// Package graph provides the graph machinery behind the topology-control
// framework: weighted undirected graphs, directed reachability, union-find,
// Prim's MST, Dijkstra's SPT, and connectivity statistics.
//
// The geometric constructions (unit-disk, RNG, Gabriel) in geometric.go
// serve as omniscient ground truth: the localized protocol implementations
// in package topology are differentially tested against them on static
// networks, where localized and centralized constructions must agree.
package graph

import (
	"fmt"
	"sort"
)

// Half is the half-edge (v, w) stored in adjacency lists.
type Half struct {
	To int
	W  float64
}

// Edge is a full undirected edge with endpoints U < V by convention.
type Edge struct {
	U, V int
	W    float64
}

// Canon returns e with endpoints ordered U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Undirected is a weighted undirected multigraph-free graph on nodes
// 0..n-1. AddEdge on an existing pair keeps the smaller weight.
type Undirected struct {
	n    int
	adj  [][]Half
	m    int
	seen map[[2]int]int // pair -> index hint into adj lists; nil until first AddEdge
}

// NewUndirected returns an empty graph with n nodes.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Undirected{n: n, adj: make([][]Half, n)}
}

// N returns the node count.
func (g *Undirected) N() int { return g.n }

// M returns the edge count.
func (g *Undirected) M() int { return g.m }

// AddEdge inserts the undirected edge (u, v) with weight w. Self-loops are
// rejected; duplicate pairs keep the minimum weight.
func (g *Undirected) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d, %d) out of range [0, %d)", u, v, g.n))
	}
	if g.seen == nil {
		g.seen = make(map[[2]int]int)
	}
	key := [2]int{u, v}
	if u > v {
		key = [2]int{v, u}
	}
	if _, ok := g.seen[key]; ok {
		// Keep the smaller weight on both half-edges.
		for i := range g.adj[u] {
			if g.adj[u][i].To == v && w < g.adj[u][i].W {
				g.adj[u][i].W = w
			}
		}
		for i := range g.adj[v] {
			if g.adj[v][i].To == u && w < g.adj[v][i].W {
				g.adj[v][i].W = w
			}
		}
		return
	}
	g.seen[key] = g.m
	g.adj[u] = append(g.adj[u], Half{To: v, W: w})
	g.adj[v] = append(g.adj[v], Half{To: u, W: w})
	g.m++
}

// HasEdge reports whether the pair (u, v) is present.
func (g *Undirected) HasEdge(u, v int) bool {
	if g.seen == nil {
		return false
	}
	key := [2]int{u, v}
	if u > v {
		key = [2]int{v, u}
	}
	_, ok := g.seen[key]
	return ok
}

// Weight returns the weight of edge (u, v) and whether it exists.
func (g *Undirected) Weight(u, v int) (float64, bool) {
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.W, true
		}
	}
	return 0, false
}

// Neighbors returns the adjacency list of u. The returned slice is shared;
// callers must not mutate it.
func (g *Undirected) Neighbors(u int) []Half { return g.adj[u] }

// Degree returns the degree of node u.
func (g *Undirected) Degree(u int) int { return len(g.adj[u]) }

// Edges returns all edges with U < V, sorted by (U, V) for determinism.
func (g *Undirected) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if u < h.To {
				es = append(es, Edge{U: u, V: h.To, W: h.W})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// Components labels every node with a component id in [0, #components) and
// returns the labels. Ids are assigned in order of the smallest node in
// each component, so labeling is deterministic.
func (g *Undirected) Components() []int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []int
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range g.adj[u] {
				if comp[h.To] == -1 {
					comp[h.To] = next
					stack = append(stack, h.To)
				}
			}
		}
		next++
	}
	return comp
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Undirected) Connected() bool {
	if g.n <= 1 {
		return true
	}
	comp := g.Components()
	for _, c := range comp {
		if c != 0 {
			return false
		}
	}
	return true
}

// PairConnectivity returns the fraction of unordered node pairs that are in
// the same component — the paper's "connectivity ratio" under strict
// (snapshot) connectivity. It is 1 for n <= 1.
func (g *Undirected) PairConnectivity() float64 {
	if g.n <= 1 {
		return 1
	}
	comp := g.Components()
	sizes := map[int]int{}
	for _, c := range comp {
		sizes[c]++
	}
	pairs := 0
	//lint:order-independent
	for _, s := range sizes {
		pairs += s * (s - 1) / 2
	}
	total := g.n * (g.n - 1) / 2
	return float64(pairs) / float64(total)
}

// Directed is an unweighted directed graph on nodes 0..n-1, used to model
// effective topologies with unidirectional links.
type Directed struct {
	n   int
	adj [][]int32
	m   int
}

// NewDirected returns an empty directed graph with n nodes.
func NewDirected(n int) *Directed {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Directed{n: n, adj: make([][]int32, n)}
}

// N returns the node count.
func (d *Directed) N() int { return d.n }

// M returns the arc count (duplicates included as inserted).
func (d *Directed) M() int { return d.m }

// AddArc inserts the arc u -> v.
func (d *Directed) AddArc(u, v int) {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		panic(fmt.Sprintf("graph: arc (%d, %d) out of range [0, %d)", u, v, d.n))
	}
	d.adj[u] = append(d.adj[u], int32(v))
	d.m++
}

// Out returns the out-neighbors of u (shared slice; do not mutate).
func (d *Directed) Out(u int) []int32 { return d.adj[u] }

// ReachableFrom marks every node reachable from src (src included) and
// returns the marks.
func (d *Directed) ReachableFrom(src int) []bool {
	seen := make([]bool, d.n)
	seen[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range d.adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, int(v))
			}
		}
	}
	return seen
}

// CountReachableFrom returns the number of nodes reachable from src,
// including src itself.
func (d *Directed) CountReachableFrom(src int) int {
	seen := d.ReachableFrom(src)
	n := 0
	for _, s := range seen {
		if s {
			n++
		}
	}
	return n
}

// AvgReachability returns the average, over all sources, of the fraction of
// *other* nodes reachable from that source — the directed analogue of the
// connectivity ratio (what an ideal instantaneous flood would deliver).
func (d *Directed) AvgReachability() float64 {
	if d.n <= 1 {
		return 1
	}
	sum := 0.0
	for s := 0; s < d.n; s++ {
		sum += float64(d.CountReachableFrom(s)-1) / float64(d.n-1)
	}
	return sum / float64(d.n)
}

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent []int32
	rank   []int8
	sets   int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), rank: make([]int8, n), sets: n}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != int32(x) {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = int(uf.parent[x])
	}
	return x
}

// Union merges the sets of x and y, returning true if they were distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = int32(rx)
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.sets--
	return true
}

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }

// Same reports whether x and y are in the same set.
func (uf *UnionFind) Same(x, y int) bool { return uf.Find(x) == uf.Find(y) }
