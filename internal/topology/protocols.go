package topology

import (
	"fmt"
	"math"

	"mstc/internal/geom"
)

// Protocol selects logical neighbors from a consistent local view.
// Implementations must be pure (no state mutated by Select) so that a single
// value can serve every node of the network concurrently.
type Protocol interface {
	// Name returns the short protocol name used in tables ("RNG",
	// "MST", "SPT-2", ...).
	Name() string
	// Select returns the ids of view.Self's logical neighbors, a subset
	// of view.Neighbors' ids, in ascending order. The view must be
	// canonical (View.Canon).
	Select(v View) []int
}

// RNG is the relative-neighborhood-graph-based protocol (§2.1, link-removal
// condition 1 with c = d, here ordered by its square DistanceCost): link
// (u, v) is removed iff some witness w in the view has cost(u,w) and
// cost(w,v) both strictly below cost(u,v) in the LinkLess total order.
type RNG struct{}

// Name implements Protocol.
func (RNG) Name() string { return "RNG" }

// Select implements Protocol.
func (r RNG) Select(v View) []int {
	return r.SelectInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectInto implements ScratchSelector.
//manet:noalloc
func (RNG) SelectInto(v View, dst []int, s *Scratch) []int {
	u := v.Self
	// Cache cost(u, w) per witness: the naive double loop recomputes each
	// of these d times. The witness cost cost(w, v) is only needed once
	// the first LinkLess condition holds, so it is computed lazily — same
	// values, same comparisons, identical output.
	cU := grown(s.costs, len(v.Neighbors))[:0]
	for _, n := range v.Neighbors {
		cU = append(cU, u.Pos.Dist2(n.Pos))
	}
	s.costs = cU
	for i, n := range v.Neighbors {
		cUV := cU[i]
		removed := false
		for j, w := range v.Neighbors {
			if w.ID == n.ID {
				continue
			}
			if !LinkLess(cU[j], u.ID, w.ID, cUV, u.ID, n.ID) {
				continue
			}
			cWV := w.Pos.Dist2(n.Pos)
			if LinkLess(cWV, w.ID, n.ID, cUV, u.ID, n.ID) {
				removed = true
				break
			}
		}
		if !removed {
			dst = append(dst, n.ID)
		}
	}
	return dst
}

// Gabriel is the Gabriel-graph special case of the RNG protocol: the
// witness region is the disk with diameter uv instead of the lune. It keeps
// strictly more edges than RNG.
type Gabriel struct{}

// Name implements Protocol.
func (Gabriel) Name() string { return "GG" }

// Select implements Protocol.
func (g Gabriel) Select(v View) []int {
	return g.SelectInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectInto implements ScratchSelector.
//manet:noalloc
func (Gabriel) SelectInto(v View, dst []int, _ *Scratch) []int {
	for _, n := range v.Neighbors {
		removed := false
		for _, w := range v.Neighbors {
			if w.ID != n.ID && geom.InGabrielDisk(w.Pos, v.Self.Pos, n.Pos) {
				removed = true
				break
			}
		}
		if !removed {
			dst = append(dst, n.ID)
		}
	}
	return dst
}

// MST is the local-MST-based protocol (LMST, Li/Hou/Sha 2003; link-removal
// condition 3): node u builds a minimum spanning tree over its view — with
// an edge between two view nodes iff their distance is at most Range, the
// normal transmission range — and keeps as logical neighbors exactly the
// nodes adjacent to u in that tree.
type MST struct {
	// Range is the normal transmission range R: only view edges with
	// d <= Range are known to exist in the original topology and may be
	// used by the tree.
	Range float64
}

// Name implements Protocol.
func (MST) Name() string { return "MST" }

// Select implements Protocol.
func (m MST) Select(v View) []int {
	return m.SelectInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectInto implements ScratchSelector. The kernel is Prim rooted at Self.
// Each step commits the candidate edge that is smallest under mstLess, the
// §3.1 strict total order (cost, min id, max id), cost being the squared
// length that the range test computes anyway — view indices ascend with
// ids — so it grows Self's tree of the unique total-order minimum
// spanning forest of the view: the tree every node computing over the
// same view agrees on. The next tree node is found by a scan fused with
// the relaxation of the last node's edges, each pair's cost computed once,
// when its first endpoint joins the tree; there is no heap. Only edges at
// Self are read, and a candidate edge from Self, once replaced, never
// returns (Self's edges are all relaxed first), so the search stops when
// no node outside the tree still has its best candidate edge from Self.
// TestMSTKernelMatchesKruskal and FuzzSelectKernels pin the result against
// an independent Kruskal oracle on tie-heavy inputs.
//manet:noalloc
func (m MST) SelectInto(v View, dst []int, s *Scratch) []int {
	selfIdx := s.viewNodes(v)
	n := len(s.ids)
	r2 := rangeBound(m.Range)
	s.dist = grown(s.dist, n)
	s.pred = grown(s.pred, n)
	s.done = grown(s.done, n)
	bestW, bestFrom, inTree := s.dist, s.pred, s.done
	for i := 0; i < n; i++ {
		bestW[i] = math.Inf(1)
		bestFrom[i] = -1
		inTree[i] = false
	}
	start := len(dst)
	fromSelf := 0 // nodes outside the tree whose best candidate edge is at Self
	for u := selfIdx; ; {
		inTree[u] = true
		if int(bestFrom[u]) == selfIdx {
			dst = append(dst, s.ids[u])
			fromSelf--
		}
		next := -1
		for nb := 0; nb < n; nb++ {
			if inTree[nb] {
				continue
			}
			if w := s.pts[u].Dist2(s.pts[nb]); w <= r2 && mstLess(w, u, nb, bestW[nb], int(bestFrom[nb]), nb) {
				if int(bestFrom[nb]) == selfIdx {
					fromSelf--
				}
				if u == selfIdx {
					fromSelf++
				}
				bestW[nb] = w
				bestFrom[nb] = int32(u)
			}
			if !math.IsInf(bestW[nb], 1) && (next == -1 ||
				mstLess(bestW[nb], int(bestFrom[nb]), nb, bestW[next], int(bestFrom[next]), next)) {
				next = nb
			}
		}
		if fromSelf == 0 {
			break
		}
		u = next
	}
	sortInts(dst[start:])
	return dst
}

// mstLess is the candidate-edge order of MST and graph.PrimMST: primarily
// by weight, then by the canonical endpoint pair — a strict total order
// even with equal weights.
func mstLess(w1 float64, a1, b1 int, w2 float64, a2, b2 int) bool {
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

// SPT is the minimum-energy (shortest-path-tree-based) protocol
// (Rodoplu/Meng 1999, Li/Halpern 2001 restricted to 1-hop information;
// link-removal condition 2): link (u, v) is removed iff the view contains a
// relay path whose total energy cost is strictly below the direct cost.
type SPT struct {
	// Alpha is the path-loss exponent of the energy model d^Alpha + Fixed.
	Alpha float64
	// Fixed is the distance-independent per-hop cost (0 in the paper's
	// simulation).
	Fixed float64
	// Range is the normal transmission range bounding usable view edges.
	Range float64
}

// Name implements Protocol.
func (s SPT) Name() string {
	if s.Alpha == float64(int(s.Alpha)) { //lint:ignore float-eq exact integrality test for display names only
		return fmt.Sprintf("SPT-%d", int(s.Alpha))
	}
	return fmt.Sprintf("SPT-%g", s.Alpha)
}

// Select implements Protocol.
func (s SPT) Select(v View) []int {
	return s.SelectInto(v, make([]int, 0, 4), &Scratch{})
}

// SelectInto implements ScratchSelector. The kernel runs the early-exit
// Dijkstra search from Self (Scratch.search) with each neighbor's direct
// cost as its threshold: the link is kept unless a strictly cheaper path
// exists. The best path includes the direct edge when it is usable, so a
// kept in-range link is one whose path cost equals its direct cost; a
// neighbor beyond Range has a direct cost but no usable edge.
// TestSPTKernelMatchesDijkstra pins it against graph.Dijkstra.
//manet:noalloc
func (sp SPT) SelectInto(v View, dst []int, s *Scratch) []int {
	if sp.Alpha < 1 {
		panic(fmt.Sprintf("topology: EnergyCost alpha %g < 1", sp.Alpha))
	}
	selfIdx := s.viewNodes(v)
	r2 := rangeBound(sp.Range)
	s.dist, s.thr = grown(s.dist, len(s.ids)), grown(s.thr, len(s.ids))
	self := s.pts[selfIdx]
	for i, p := range s.pts {
		d2 := self.Dist2(p)
		s.thr[i] = energy(d2, sp.Alpha) + sp.Fixed
		s.dist[i] = math.Inf(1)
		if d2 <= r2 {
			s.dist[i] = s.thr[i]
		}
	}
	s.dist[selfIdx] = 0
	//lint:ignore noalloc the closure does not escape search, so it stays on the stack; the conformance test pins zero allocs
	return s.search(dst, selfIdx, false, func(i, j int) float64 {
		d2 := s.pts[i].Dist2(s.pts[j])
		if d2 > r2 {
			return math.Inf(1)
		}
		return energy(d2, sp.Alpha) + sp.Fixed
	})
}

// Yao is the Yao-graph-based protocol: the disk around u is divided into K
// equal cones and the nearest view neighbor in each cone is selected.
// Connectivity of the (directed) Yao graph is guaranteed for K >= 6.
type Yao struct {
	// K is the number of cones (>= 1; >= 6 for guaranteed connectivity).
	K int
}

// Name implements Protocol.
func (y Yao) Name() string { return fmt.Sprintf("Yao-%d", y.K) }

// Select implements Protocol.
func (y Yao) Select(v View) []int {
	return y.SelectInto(v, make([]int, 0, y.K), &Scratch{})
}

// SelectInto implements ScratchSelector.
//manet:noalloc
func (y Yao) SelectInto(v View, dst []int, s *Scratch) []int {
	if y.K <= 0 {
		panic(fmt.Sprintf("topology: Yao with K = %d", y.K))
	}
	best := grown(s.best, y.K) // index into v.Neighbors, -1 = empty
	s.best = best
	for i := range best {
		best[i] = -1
	}
	for i, n := range v.Neighbors {
		c := geom.ConeIndex(v.Self.Pos, n.Pos, y.K)
		if best[c] == -1 {
			best[c] = i
			continue
		}
		cur := v.Neighbors[best[c]]
		dNew := v.Self.Pos.Dist2(n.Pos)
		dCur := v.Self.Pos.Dist2(cur.Pos)
		if LinkLess(dNew, v.Self.ID, n.ID, dCur, v.Self.ID, cur.ID) {
			best[c] = i
		}
	}
	start := len(dst)
	for _, i := range best {
		if i != -1 {
			dst = append(dst, v.Neighbors[i].ID)
		}
	}
	sortInts(dst[start:])
	return dst
}

// None is the null protocol: every 1-hop neighbor is logical. It models the
// uncontrolled network (normal transmission range) as a baseline.
type None struct{}

// Name implements Protocol.
func (None) Name() string { return "none" }

// Select implements Protocol.
func (n None) Select(v View) []int {
	return n.SelectInto(v, make([]int, 0, len(v.Neighbors)), &Scratch{})
}

// SelectInto implements ScratchSelector.
//manet:noalloc
func (None) SelectInto(v View, dst []int, _ *Scratch) []int {
	for _, n := range v.Neighbors {
		dst = append(dst, n.ID)
	}
	return dst
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
