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

// SelectWeakInto implements WeakScratchSelector.
//manet:noalloc
func (WeakRNG) SelectWeakInto(v MultiView, dst []int, _ *Scratch) []int {
	start := len(dst)
	for _, n := range v.Neighbors {
		cMinUV, _ := CostRange(v.Self.Positions, n.Positions, DistanceCost)
		removed := false
		for _, w := range v.Neighbors {
			if w.ID == n.ID {
				continue
			}
			_, cMaxUW := CostRange(v.Self.Positions, w.Positions, DistanceCost)
			_, cMaxWV := CostRange(w.Positions, n.Positions, DistanceCost)
			if cMinUV > math.Max(cMaxUW, cMaxWV) {
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
	// relay path only when even its maximal cost keeps it within Range
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
	selfIdx := s.multiViewNodes(v)
	s.fillWeakMatrix(m.Range, DistanceCost)
	bottleneck := s.densePaths(len(s.pos), selfIdx, true)
	start := len(dst)
	for i, n := range v.Neighbors {
		idx := i
		if i >= selfIdx {
			idx = i + 1
		}
		cMinUV, _ := CostRange(v.Self.Positions, n.Positions, DistanceCost)
		if !(cMinUV > bottleneck[idx]) {
			dst = append(dst, n.ID)
		}
	}
	sortInts(dst[start:])
	return dst
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
	//lint:ignore noalloc the closure captures only sp (by value) and does not escape fillWeakMatrix, so it stays on the stack; the conformance test pins zero allocs
	cost := func(d float64) float64 { return energy(d, sp.Alpha) + sp.Fixed }
	selfIdx := s.multiViewNodes(v)
	s.fillWeakMatrix(sp.Range, cost)
	dist := s.densePaths(len(s.pos), selfIdx, false)
	start := len(dst)
	for i, n := range v.Neighbors {
		idx := i
		if i >= selfIdx {
			idx = i + 1
		}
		cMinUV, _ := CostRange(v.Self.Positions, n.Positions, cost)
		if !(cMinUV > dist[idx]) {
			dst = append(dst, n.ID)
		}
	}
	sortInts(dst[start:])
	return dst
}

// multiViewNodes lays the view's position sets out in ascending real-id
// order (Self inserted at its id rank), so neighbor i sits at index i
// (i < selfIdx) or i+1. It returns Self's index.
func (s *Scratch) multiViewNodes(v MultiView) (selfIdx int) {
	n := len(v.Neighbors) + 1
	s.pos = grown(s.pos, n)[:0]
	selfIdx = -1
	for _, nb := range v.Neighbors {
		if selfIdx == -1 && v.Self.ID < nb.ID {
			selfIdx = len(s.pos)
			s.pos = append(s.pos, v.Self.Positions)
		}
		s.pos = append(s.pos, nb.Positions)
	}
	if selfIdx == -1 {
		selfIdx = len(s.pos)
		s.pos = append(s.pos, v.Self.Positions)
	}
	return selfIdx
}

// fillWeakMatrix fills the scratch dense matrix with the pessimistic (cMax)
// pairwise costs over s.pos, +Inf where even the maximal cost cannot
// certify the link exists (the conservative existence test).
func (s *Scratch) fillWeakMatrix(maxRange float64, fn CostFn) {
	n := len(s.pos)
	s.w = grown(s.w, n*n)
	limit := math.Inf(1)
	if maxRange > 0 && !math.IsInf(maxRange, 1) {
		limit = fn(maxRange)
	}
	for i := 0; i < n; i++ {
		s.w[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			_, cMax := CostRange(s.pos[i], s.pos[j], fn)
			if cMax > limit {
				cMax = math.Inf(1)
			}
			s.w[i*n+j] = cMax
			s.w[j*n+i] = cMax
		}
	}
}
