package topology

import (
	"math"

	"mstc/internal/geom"
)

// Scratch holds the reusable working storage of the allocation-free
// selection kernels (SelectInto / SelectWeakInto): witness-cost caches,
// view index tables and per-node search labels.
// The zero value is ready to use; buffers grow on demand and are retained
// across calls, so a long-lived caller (one per simulated network in
// package manet) reaches a steady state where selection allocates nothing.
//
// A Scratch may be shared by any number of protocol values but never
// across goroutines — it is caller-owned mutable state, which is exactly
// why it is threaded as an explicit parameter instead of living inside
// the (pure, shareable) protocol values.
type Scratch struct {
	costs []float64      // RNG: cost(self, w); WeakRNG: cMin, then cMax of (self, w)
	best  []int          // Yao: per-cone best neighbor index
	ids   []int          // MST/SPT/weak: view index -> node id
	pts   []geom.Point   // MST/SPT: view positions in index order
	pos   [][]geom.Point // weak: per-node position sets in index order
	dist  []float64      // per-node keys (distance / bottleneck / best weight)
	thr   []float64      // SPT/weak: per-neighbor removal threshold
	pred  []int32        // MST: source of each node's best candidate edge
	done  []bool         // settled (search) / in the tree (MST)
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

// search decides every neighbor of the view node src for SPT, WeakSPT and
// WeakMST, and appends the ids (s.ids) of those it keeps to dst. On entry
// s.dist holds src's relaxed row (0 at src, each usable edge's cost from
// src, +Inf elsewhere) and s.thr each neighbor's threshold: v is removed
// iff its best path cost is below thr[v]. A path costs the sum of its edge
// weights (Dijkstra) or, with bottleneck, their maximum (minimax).
// cost(i, j) is the non-negative weight of edge i–j (+Inf = no edge),
// computed once per pair, when the first endpoint settles.
//
// Each step settles the unsettled node with the smallest finite
// (key, index), found by a scan fused with the relaxation of the last
// settled node's edges. Keys only fall, so v is removed for good once
// key < thr[v]. Keys settle in nondecreasing order (fl(a+b) >= a for
// b >= 0; max is exact), so no final key is below the smallest unsettled
// one, and v is kept for good once that reaches thr[v]. The search stops
// when every neighbor is decided or nothing reachable is left.
func (s *Scratch) search(dst []int, src int, bottleneck bool, cost func(i, j int) float64) []int {
	s.done = grown(s.done, len(s.dist))
	key, thr, done := s.dist, s.thr, s.done
	for i := range done {
		done[i] = false
	}
	for u := src; ; {
		done[u] = true
		du := key[u]
		next, open := -1, math.Inf(-1) // open: the largest threshold not yet removed
		for v := range key {
			if done[v] {
				continue
			}
			if u != src { // src's row is preloaded
				w := cost(u, v)
				nd := du + w
				if bottleneck {
					nd = math.Max(du, w)
				}
				if nd < key[v] {
					key[v] = nd
				}
			}
			if !(key[v] < thr[v]) && thr[v] > open {
				open = thr[v]
			}
			if !math.IsInf(key[v], 1) && (next == -1 || key[v] < key[next]) {
				next = v
			}
		}
		if next == -1 || open <= key[next] {
			break
		}
		u = next
	}
	for i, id := range s.ids {
		if i != src && !(key[i] < thr[i]) {
			dst = append(dst, id)
		}
	}
	return dst
}

// rangeBound converts a maximum range into the squared-distance bound R²
// of the kernels' edge-existence tests (maxRange <= 0 or +Inf means
// unbounded).
func rangeBound(maxRange float64) float64 {
	if maxRange <= 0 || math.IsInf(maxRange, 1) {
		return math.Inf(1)
	}
	return maxRange * maxRange
}
