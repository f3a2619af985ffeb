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

// SelectWeakInto implements WeakScratchSelector. Costs are squared
// lengths (DistanceCost). cMin and cMax of each link at Self are computed
// once; for non-NaN costs
// x > max(a, b) ⇔ x > a && x > b, so the witness's far cost cMax(w,v) is
// computed only once cMax(u,w) is below cMin(u,v).
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
			if w.ID != n.ID && cMin[i] > cMax[j] && cMin[i] > maxDist2(w.Positions, n.Positions) {
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

// SelectWeakInto implements WeakScratchSelector.
//manet:noalloc
func (m WeakMST) SelectWeakInto(v MultiView, dst []int, s *Scratch) []int {
	return s.weakSearch(v, dst, m.Range, DistanceCost, true)
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

// SelectWeakInto implements WeakScratchSelector.
//manet:noalloc
func (sp WeakSPT) SelectWeakInto(v MultiView, dst []int, s *Scratch) []int {
	if sp.Alpha < 1 {
		panic(fmt.Sprintf("topology: EnergyCost alpha %g < 1", sp.Alpha))
	}
	//lint:ignore noalloc the closure captures only sp (by value) and does not escape weakSearch, so it stays on the stack; the conformance test pins zero allocs
	cost := func(d2 float64) float64 { return energy(d2, sp.Alpha) + sp.Fixed }
	return s.weakSearch(v, dst, sp.Range, cost, false)
}

// weakSearch runs the early-exit search (Scratch.search) from Self over the
// pessimistic (cMax) link costs under fn, with cMin(Self, v) as neighbor
// v's threshold: v is removed iff a relay path's cost is below even the
// most optimistic cost of the direct link. An edge is usable only when its
// largest squared length is at most maxRange² (the conservative existence
// test, on the same d² ≤ R² comparison the strong kernels and the radio
// make).
func (s *Scratch) weakSearch(v MultiView, dst []int, maxRange float64, fn CostFn, bottleneck bool) []int {
	selfIdx := s.multiViewNodes(v)
	r2 := rangeBound(maxRange)
	s.dist, s.thr = grown(s.dist, len(s.pos)), grown(s.thr, len(s.pos))
	for i, p := range s.pos {
		d2Min, d2Max := distRange(s.pos[selfIdx], p)
		s.thr[i], s.dist[i] = fn(d2Min), math.Inf(1)
		if d2Max <= r2 {
			s.dist[i] = fn(d2Max)
		}
	}
	s.dist[selfIdx] = 0
	start := len(dst)
	//lint:ignore noalloc the closure does not escape search, so it stays on the stack; the conformance test pins zero allocs
	dst = s.search(dst, selfIdx, bottleneck, func(i, j int) float64 {
		if d2 := maxDist2(s.pos[i], s.pos[j]); d2 <= r2 {
			return fn(d2)
		}
		return math.Inf(1)
	})
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
