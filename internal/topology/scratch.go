package topology

import (
	"math"

	"mstc/internal/geom"
)

// Scratch holds the reusable working storage of the allocation-free
// selection kernels (SelectInto / SelectWeakInto): witness-cost caches,
// view index tables, dense weight matrices and per-node search labels.
// The zero value is ready to use; buffers grow on demand and are retained
// across calls, so a long-lived caller (one per simulated network in
// package manet) reaches a steady state where selection allocates nothing.
//
// A Scratch may be shared by any number of protocol values but never
// across goroutines — it is caller-owned mutable state, which is exactly
// why it is threaded as an explicit parameter instead of living inside
// the (pure, shareable) protocol values.
type Scratch struct {
	costs []float64      // RNG: cost(self, w) per witness
	best  []int          // Yao: per-cone best neighbor index
	ids   []int          // MST/SPT/weak: view index -> node id
	pts   []geom.Point   // MST/SPT: view positions in index order
	pos   [][]geom.Point // weak: per-node position sets in index order
	w     []float64      // MST/SPT/weak: dense n×n weight matrix, +Inf = no edge
	dist  []float64      // per-node keys (distance / bottleneck / best weight)
	pred  []int32        // MST: source of each node's best candidate edge
	done  []bool
}

// ScratchSelector is implemented by protocols with an allocation-free
// selection kernel. SelectInto appends the selected logical neighbor ids
// (ascending) to dst and returns the extended slice; the result is
// bit-identical to Select on the same view. Scratch buffers are grown and
// reused; nothing in the returned slice aliases the Scratch.
type ScratchSelector interface {
	SelectInto(v View, dst []int, s *Scratch) []int
}

// WeakScratchSelector is the weak-consistency analogue of ScratchSelector.
type WeakScratchSelector interface {
	SelectWeakInto(v MultiView, dst []int, s *Scratch) []int
}

// SelectInto runs p's selection appending into dst, through p's
// allocation-free kernel when it has one and through plain Select
// otherwise. Results are identical either way; only allocation behavior
// differs.
//manet:noalloc
func SelectInto(p Protocol, v View, dst []int, s *Scratch) []int {
	if ip, ok := p.(ScratchSelector); ok {
		return ip.SelectInto(v, dst, s)
	}
	return append(dst, p.Select(v)...)
}

// SelectWeakInto is SelectInto for weak-consistency selectors.
//manet:noalloc
func SelectWeakInto(p WeakProtocol, v MultiView, dst []int, s *Scratch) []int {
	if ip, ok := p.(WeakScratchSelector); ok {
		return ip.SelectWeakInto(v, dst, s)
	}
	return append(dst, p.SelectWeak(v)...)
}

// grown returns buf resized to n, growing the backing array if needed.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		//lint:ignore noalloc amortized growth: Scratch buffers are retained across calls, so long-lived callers reach an allocation-free steady state (pinned by the conformance tests)
		return make([]T, n, n+n/2+8)
	}
	return buf[:n]
}

// viewNodes lays the view's nodes out in ascending real-id order (Self
// inserted at its id rank) into the scratch index tables, so index-based
// tie-breaking matches the global id-based total order — essential for
// different nodes' local computations to agree on equal-cost links
// (Theorem 1 needs a single total order shared by all nodes). It returns
// Self's index.
func (s *Scratch) viewNodes(v View) (selfIdx int) {
	n := len(v.Neighbors) + 1
	s.ids = grown(s.ids, n)[:0]
	s.pts = grown(s.pts, n)[:0]
	selfIdx = -1
	for _, nb := range v.Neighbors {
		if selfIdx == -1 && v.Self.ID < nb.ID {
			selfIdx = len(s.ids)
			s.ids = append(s.ids, v.Self.ID)
			s.pts = append(s.pts, v.Self.Pos)
		}
		s.ids = append(s.ids, nb.ID)
		s.pts = append(s.pts, nb.Pos)
	}
	if selfIdx == -1 {
		selfIdx = len(s.ids)
		s.ids = append(s.ids, v.Self.ID)
		s.pts = append(s.pts, v.Self.Pos)
	}
	return selfIdx
}

// densePaths returns, per node, the cost of the best path from src over
// the scratch's dense n×n weight matrix (+Inf = no edge): the sum of its
// edge weights (Dijkstra: SPT, WeakSPT) or, when bottleneck is set, their
// maximum (minimax: WeakMST). Edge weights must be non-negative.
//
// Each step settles the unsettled node with the smallest finite
// (key, index), found by a scan fused with the relaxation of the last
// settled node's row: O(n²), the cost of filling the matrix, with no heap.
// That is the order a lazy (key, node) heap pops in — a stale entry never
// holds a key below its node's current one — so the keys are bit-identical
// to the heap form's (TestSPTKernelMatchesDijkstra and
// TestWeakKernelsMatchReference pin both against heap references).
func (s *Scratch) densePaths(n, src int, bottleneck bool) []float64 {
	s.dist = grown(s.dist, n)
	s.done = grown(s.done, n)
	dist, done := s.dist, s.done
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		done[i] = false
	}
	dist[src] = 0
	for u := src; u != -1; {
		done[u] = true
		du := dist[u]
		row := s.w[u*n : u*n+n]
		next := -1
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			if w := row[v]; !math.IsInf(w, 1) {
				nd := du + w
				if bottleneck {
					nd = math.Max(du, w)
				}
				if nd < dist[v] {
					dist[v] = nd
				}
			}
			if !math.IsInf(dist[v], 1) && (next == -1 || dist[v] < dist[next]) {
				next = v
			}
		}
		u = next
	}
	return dist
}

// rangeBound converts a maximum range into the squared-distance bound used
// by the view-graph constructions (maxRange <= 0 or +Inf means unbounded).
func rangeBound(maxRange float64) float64 {
	if maxRange <= 0 || math.IsInf(maxRange, 1) {
		return math.Inf(1)
	}
	return maxRange * maxRange
}
