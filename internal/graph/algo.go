package graph

import (
	"container/heap"
	"math"
)

// PrimMST computes a minimum spanning forest of g with Prim's algorithm
// restarted per component. It returns the forest edges (sorted by (U, V))
// and whether the forest spans a single component (a true spanning tree).
// Every step commits the candidate edge smallest under less — weight, then
// the canonical endpoint pair — so the result is the unique minimum
// spanning forest under that strict total order, matching the total-order
// assumption of the paper's framework (§3.1: unique costs, IDs break ties).
func PrimMST(g *Undirected) (edges []Edge, spanning bool) {
	n := g.N()
	if n == 0 {
		return nil, true
	}
	const unvisited = -1
	bestW := make([]float64, n)
	bestFrom := make([]int, n)
	inTree := make([]bool, n)
	for i := range bestW {
		bestW[i] = math.Inf(1)
		bestFrom[i] = unvisited
	}
	pq := &keyHeap{}
	trees := 0
	for start := 0; start < n; start++ {
		if inTree[start] {
			continue
		}
		trees++
		bestW[start] = 0
		heap.Push(pq, keyItem{node: start, key: 0, from: unvisited})
		for pq.Len() > 0 {
			it := heap.Pop(pq).(keyItem)
			u := it.node
			if inTree[u] {
				continue
			}
			inTree[u] = true
			if it.from != unvisited {
				edges = append(edges, Edge{U: it.from, V: u, W: it.key}.Canon())
			}
			for _, h := range g.Neighbors(u) {
				if !inTree[h.To] && less(h.W, u, h.To, bestW[h.To], bestFrom[h.To], h.To) {
					bestW[h.To] = h.W
					bestFrom[h.To] = u
					heap.Push(pq, keyItem{node: h.To, key: h.W, from: u})
				}
			}
		}
	}
	sortEdges(edges)
	return edges, trees <= 1
}

// less orders candidate tree edges: primarily by weight, then by the
// canonical endpoint pair, giving a strict total order even with equal
// weights.
func less(w1 float64, a1, b1 int, w2 float64, a2, b2 int) bool {
	if w1 != w2 { //lint:ignore float-eq exact compare is the documented strict total order over edge weights
		return w1 < w2
	}
	if a1 > b1 {
		a1, b1 = b1, a1
	}
	if a2 > b2 {
		a2, b2 = b2, a2
	}
	if a1 != a2 {
		return a1 < a2
	}
	return b1 < b2
}

func sortEdges(es []Edge) {
	for i := 1; i < len(es); i++ { // insertion sort: lists are small and nearly sorted
		for j := i; j > 0 && (es[j].U < es[j-1].U || (es[j].U == es[j-1].U && es[j].V < es[j-1].V)); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

type keyItem struct {
	node int
	key  float64
	from int
}

// keyHeap orders items by less over (key, from, node): a Prim item is its
// candidate edge, so the heap pops edges in the strict total order and a
// node's newest entry (its best edge) precedes its stale ones even at
// equal weight. Dijkstra items carry from = -1 and so order by (key, node).
type keyHeap []keyItem

func (h keyHeap) Len() int { return len(h) }
func (h keyHeap) Less(i, j int) bool {
	return less(h[i].key, h[i].from, h[i].node, h[j].key, h[j].from, h[j].node)
}
func (h keyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *keyHeap) Push(x any)   { *h = append(*h, x.(keyItem)) }
func (h *keyHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Dijkstra returns shortest-path distances from src over non-negative edge
// weights, and the predecessor of each node on its shortest path (-1 for
// src and unreachable nodes). Ties break toward smaller predecessor ids.
func Dijkstra(g *Undirected, src int) (dist []float64, pred []int) {
	n := g.N()
	dist = make([]float64, n)
	pred = make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		pred[i] = -1
	}
	dist[src] = 0
	pq := &keyHeap{{node: src, key: 0, from: -1}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(keyItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, h := range g.Neighbors(u) {
			nd := dist[u] + h.W
			if nd < dist[h.To] || (nd == dist[h.To] && !done[h.To] && (pred[h.To] == -1 || u < pred[h.To])) { //lint:ignore float-eq exact tie-break selects the lowest-id predecessor deterministically
				dist[h.To] = nd
				pred[h.To] = u
				heap.Push(pq, keyItem{node: h.To, key: nd, from: -1})
			}
		}
	}
	return dist, pred
}
