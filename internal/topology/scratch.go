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

// SelectInto is p.SelectInto in function form.
//
//manet:noalloc
func SelectInto(p Protocol, v View, dst []int, s *Scratch) []int {
	return p.SelectInto(v, dst, s)
}

// SelectWeakInto is p.SelectWeakInto in function form.
//
//manet:noalloc
func SelectWeakInto(p WeakProtocol, v MultiView, dst []int, s *Scratch) []int {
	return p.SelectWeakInto(v, dst, s)
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

// searchEnergy decides every neighbor of the view node src for SPT and
// appends the ids (s.ids) of those it keeps to dst. On entry s.dist holds
// src's relaxed row (0 at src, each usable edge's cost from src, +Inf
// elsewhere) and s.thr each neighbor's threshold: v is removed iff its
// best path cost, the least sum of edge costs energy(d², alpha) + fixed
// over edges with d² <= r2, is below thr[v]. A pair's cost is computed
// inline, once, when its first endpoint settles; a pair beyond r2 has no
// edge and relaxes nothing.
//
// Each step settles the unsettled node with the smallest finite
// (key, index), found by a scan fused with the relaxation of the last
// settled node's edges. Keys only fall, so v is removed for good once
// key < thr[v]. Keys settle in nondecreasing order (fl(a+b) >= a for
// b >= 0), so no final key is below the smallest unsettled one, and v is
// kept for good once that reaches thr[v]. The search stops when every
// neighbor is decided or nothing reachable is left. weakSearch is the
// same search over position sets.
func (s *Scratch) searchEnergy(dst []int, src int, r2, alpha, fixed float64) []int {
	s.done = grown(s.done, len(s.dist))
	// Equal lengths, stated to the compiler, drop the bounds checks.
	key := s.dist
	thr, done, pts := s.thr[:len(key)], s.done[:len(key)], s.pts[:len(key)]
	clear(done)
	for u := src; ; {
		done[u] = true
		du, pu := key[u], pts[u]
		next, nextKey := -1, math.Inf(1)
		open := math.Inf(-1) // the largest threshold not yet removed
		for v := range key {
			if done[v] {
				continue
			}
			if u != src { // src's row is preloaded
				if d2 := pu.Dist2(pts[v]); d2 <= r2 {
					// energy(d2, alpha), inlined: its call to math.Pow
					// keeps the compiler from inlining energy itself.
					c := d2
					switch alpha {
					case 2:
					case 4:
						if d2 > 0x1p-400 && d2 < 0x1p400 {
							c = float64(d2 * d2)
							break
						}
						fallthrough
					default:
						c = math.Pow(d2, alpha/2)
					}
					if nd := du + (c + fixed); nd < key[v] {
						key[v] = nd
					}
				}
			}
			kv := key[v]
			if !(kv < thr[v]) && thr[v] > open {
				open = thr[v]
			}
			if kv < nextKey {
				next, nextKey = v, kv
			}
		}
		if next == -1 || open <= nextKey {
			break
		}
		u = next
	}
	return s.appendKept(dst, src)
}

// appendKept appends to dst the id of every node other than src whose
// search key did not fall below its threshold.
func (s *Scratch) appendKept(dst []int, src int) []int {
	for i, id := range s.ids {
		if i != src && !(s.dist[i] < s.thr[i]) {
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
