package topology

import (
	"fmt"
	"math"
)

// WeakProtocol selects logical neighbors from a weakly consistent view
// using the paper's *enhanced link-removal conditions* (§4.2): a link is
// removed only when even its most optimistic cost (cMin) exceeds the most
// pessimistic cost (cMax) of some replacement path. Theorem 4 proves the
// resulting logical topology connected whenever views are weakly
// consistent (Definition 2).
type WeakProtocol interface {
	// Name returns the protocol name with a "w" prefix ("wRNG", ...).
	Name() string
	// SelectWeak returns the ids of v.Self's logical neighbors, in
	// ascending order.
	SelectWeak(v MultiView) []int
	// SelectWeakInto is SelectWeak's allocation-free kernel, appending
	// into dst as Protocol.SelectInto does.
	SelectWeakInto(v MultiView, dst []int, s *Scratch) []int
}

// WeakRNG applies enhanced removal condition 1: remove (u, v) iff some
// witness w has cMin(u,v) > max(cMax(u,w), cMax(w,v)).
type WeakRNG struct{}

// Name implements WeakProtocol.
func (WeakRNG) Name() string { return "wRNG" }

// SelectWeak implements WeakProtocol.
func (w WeakRNG) SelectWeak(v MultiView) []int {
	return w.SelectWeakInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectWeakInto implements WeakProtocol. Costs are squared lengths.
// cMin and cMax of each link at Self are computed once; for non-NaN costs
// x > max(a, b) ⇔ x > a && x > b, so the witness's far cost cMax(w,v) is
// looked at only once cMax(u,w) is below cMin(u,v). Even then it is not
// computed: x > max S ⇔ x > s for every s of S, so maxDist2Within stops
// at the first pair of w and v that is not below cMin(u,v).
//
//manet:noalloc
func (WeakRNG) SelectWeakInto(v MultiView, dst []int, s *Scratch) []int {
	d := len(v.Neighbors)
	s.costs = grown(s.costs, 2*d)
	cMin, cMax := s.costs[:d], s.costs[d:]
	for i, n := range v.Neighbors {
		cMin[i], cMax[i] = distRange(v.Self.Positions, n.Positions)
	}
	start := len(dst)
	for i, n := range v.Neighbors {
		removed := false
		for j, w := range v.Neighbors {
			if w.ID == n.ID || !(cMin[i] > cMax[j]) {
				continue
			}
			if _, below := maxDist2Within(w.Positions, n.Positions, math.Inf(1), cMin[i]); below {
				removed = true
				break
			}
		}
		if !removed {
			dst = append(dst, n.ID)
		}
	}
	sortInts(dst[start:])
	return dst
}

// WeakMST applies enhanced removal condition 3: remove (u, v) iff the view
// contains a relay path every edge of which has cMax below cMin(u,v) —
// i.e. the minimax (bottleneck) path cost from u to v is below cMin(u,v).
type WeakMST struct {
	// Range is the normal transmission range; a view edge is usable by a
	// relay path only when even its longest position pair is within Range
	// (the conservative existence test).
	Range float64
}

// Name implements WeakProtocol.
func (WeakMST) Name() string { return "wMST" }

// SelectWeak implements WeakProtocol.
func (m WeakMST) SelectWeak(v MultiView) []int {
	return m.SelectWeakInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectWeakInto implements WeakProtocol. Its link cost is the
// squared length itself, which energy(d², 2) + 0 is bit for bit.
//
//manet:noalloc
func (m WeakMST) SelectWeakInto(v MultiView, dst []int, s *Scratch) []int {
	return s.weakSearch(v, dst, m.Range, 2, 0, true)
}

// WeakSPT applies enhanced removal condition 2: remove (u, v) iff the view
// contains a relay path whose summed cMax energy cost is below cMin(u,v).
type WeakSPT struct {
	// Alpha and Fixed parameterize the energy cost d^Alpha + Fixed.
	Alpha float64
	Fixed float64
	// Range is the normal transmission range bounding usable relay edges.
	Range float64
}

// Name implements WeakProtocol.
func (s WeakSPT) Name() string {
	if s.Alpha == float64(int(s.Alpha)) { //lint:ignore float-eq exact integrality test for display names only
		return fmt.Sprintf("wSPT-%d", int(s.Alpha))
	}
	return fmt.Sprintf("wSPT-%g", s.Alpha)
}

// SelectWeak implements WeakProtocol.
func (s WeakSPT) SelectWeak(v MultiView) []int {
	return s.SelectWeakInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectWeakInto implements WeakProtocol.
//
//manet:noalloc
func (sp WeakSPT) SelectWeakInto(v MultiView, dst []int, s *Scratch) []int {
	if sp.Alpha < 1 {
		panic(fmt.Sprintf("topology: WeakSPT alpha %g < 1", sp.Alpha))
	}
	return s.weakSearch(v, dst, sp.Range, sp.Alpha, sp.Fixed, false)
}

// weakSearch is Scratch.searchEnergy over the view's position sets, from
// Self, for WeakSPT and, with bottleneck, WeakMST: a path costs the sum of
// its edges' pessimistic costs energy(cMax d², alpha) + fixed or, with
// bottleneck, their maximum (minimax), and neighbor v's threshold is the
// cost of cMin(Self, v): v is removed iff a relay path's cost is below
// even the most optimistic cost of the direct link. An edge is usable only
// when its largest squared length is at most maxRange² (the conservative
// existence test, on the same d² ≤ R² comparison the strong kernels and
// the radio make). max, like a sum of non-negative costs, never settles a
// key below its predecessor's, so searchEnergy's exit rules hold.
//
// An edge's pair scan stops at the first pair that decides the caller's
// comparison (maxDist2Within). A pair beyond R² makes the edge unusable
// whatever the others are. With bottleneck the cost is d² itself, so a
// pair at or above key[v] already makes max(du, cMax) < key[v] fail, and
// du ≥ key[v] fails it before any pair is looked at. Only a scan that
// runs to its end yields cMax, and then it is maxDist2's value bit for
// bit. The key exit holds only because energy(d², 2) + 0 is d²; the sum
// takes the range exit alone.
func (s *Scratch) weakSearch(v MultiView, dst []int, maxRange, alpha, fixed float64, bottleneck bool) []int {
	src := s.multiViewNodes(v)
	r2 := rangeBound(maxRange)
	s.dist, s.thr = grown(s.dist, len(s.pos)), grown(s.thr, len(s.pos))
	for i, p := range s.pos {
		d2Min, d2Max := distRange(s.pos[src], p)
		s.thr[i], s.dist[i] = energy(d2Min, alpha)+fixed, math.Inf(1)
		if d2Max <= r2 {
			s.dist[i] = energy(d2Max, alpha) + fixed
		}
	}
	s.dist[src] = 0
	s.done = grown(s.done, len(s.dist))
	key := s.dist
	thr, done, pos := s.thr[:len(key)], s.done[:len(key)], s.pos[:len(key)]
	clear(done)
	for u := src; ; {
		done[u] = true
		du, pu := key[u], pos[u]
		next, nextKey := -1, math.Inf(1)
		open := math.Inf(-1) // the largest threshold not yet removed
		for v := range key {
			if done[v] {
				continue
			}
			switch {
			case u == src: // src's row is preloaded
			case !bottleneck:
				if d2, ok := maxDist2Within(pu, pos[v], r2, math.Inf(1)); ok {
					if nd := du + (energy(d2, alpha) + fixed); nd < key[v] {
						key[v] = nd
					}
				}
			case du < key[v]: // else max(du, cMax) < key[v] cannot hold
				if d2, ok := maxDist2Within(pu, pos[v], r2, key[v]); ok {
					key[v] = max(du, d2)
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
	start := len(dst)
	dst = s.appendKept(dst, src)
	sortInts(dst[start:])
	return dst
}

// multiViewNodes lays the view's ids and position sets out in ascending
// real-id order (Self inserted at its id rank), so neighbor i sits at
// index i (i < selfIdx) or i+1. It returns Self's index.
func (s *Scratch) multiViewNodes(v MultiView) (selfIdx int) {
	n := len(v.Neighbors) + 1
	s.ids = grown(s.ids, n)[:0]
	s.pos = grown(s.pos, n)[:0]
	selfIdx = -1
	for _, nb := range v.Neighbors {
		if selfIdx == -1 && v.Self.ID < nb.ID {
			selfIdx = len(s.pos)
			s.ids = append(s.ids, v.Self.ID)
			s.pos = append(s.pos, v.Self.Positions)
		}
		s.ids = append(s.ids, nb.ID)
		s.pos = append(s.pos, nb.Positions)
	}
	if selfIdx == -1 {
		selfIdx = len(s.pos)
		s.ids = append(s.ids, v.Self.ID)
		s.pos = append(s.pos, v.Self.Positions)
	}
	return selfIdx
}
