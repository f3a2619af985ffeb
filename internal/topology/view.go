package topology

import (
	"math"
	"sort"

	"mstc/internal/geom"
)

// NodeInfo is one node's entry in a local view: its id and the position it
// advertised in the "Hello" message the view was built from.
type NodeInfo struct {
	ID  int
	Pos geom.Point
}

// View is a (strongly) consistent local view (§3.1): the observing node
// itself plus one position per 1-hop neighbor. Consistency in the sense of
// Definition 1 — a single version per node — is the caller's responsibility
// (package manet builds views from a version store; package snapshot builds
// them omnisciently).
type View struct {
	Self      NodeInfo
	Neighbors []NodeInfo
}

// Canon returns the view with neighbors sorted by id and any duplicate or
// self entries removed (keeping the first occurrence). Selectors require
// canonical views; building one is O(n log n).
func (v View) Canon() View {
	nbrs := make([]NodeInfo, 0, len(v.Neighbors))
	seen := map[int]bool{v.Self.ID: true}
	for _, n := range v.Neighbors {
		if !seen[n.ID] {
			seen[n.ID] = true
			nbrs = append(nbrs, n)
		}
	}
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].ID < nbrs[j].ID })
	return View{Self: v.Self, Neighbors: nbrs}
}

// EnsureCanon returns v unchanged when it is already canonical — neighbors
// strictly ascending by id with no entry equal to Self — and falls back to
// Canon otherwise. Views assembled from a hello.Table (which stores at most
// one live entry per neighbor and lists them in ascending id order) hit the
// no-op path, so the per-event selection pipeline canonicalizes without
// allocating.
func (v View) EnsureCanon() View {
	for i, n := range v.Neighbors {
		if n.ID == v.Self.ID || (i > 0 && v.Neighbors[i-1].ID >= n.ID) {
			return v.Canon()
		}
	}
	return v
}

// Find returns the neighbor entry with the given id, if present.
func (v View) Find(id int) (NodeInfo, bool) {
	for _, n := range v.Neighbors {
		if n.ID == id {
			return n, true
		}
	}
	return NodeInfo{}, false
}

// MultiNodeInfo is one node's entry in a weakly consistent view: all
// positions carried by the k most recent "Hello" messages stored for it,
// newest first.
type MultiNodeInfo struct {
	ID        int
	Positions []geom.Point
}

// MultiView is a weakly consistent local view (§4.2): the observing node's
// own recently *advertised* positions plus the stored recent positions of
// every neighbor. Link (u, v) then has a cost *set* — one cost per pair of
// stored positions — whose extrema drive the enhanced removal conditions.
type MultiView struct {
	Self      MultiNodeInfo
	Neighbors []MultiNodeInfo
}

// MaxDist returns the largest distance between a point of a and a point of
// b (+Inf if either is empty). It is a range, not a cost, so it is a real
// distance: the square root of maxDist2.
func MaxDist(a, b []geom.Point) float64 { return math.Sqrt(maxDist2(a, b)) }

// maxDist2 returns the largest squared distance between a point of a and a
// point of b (+Inf if either is empty): distRange's d2Max alone, bit for
// bit.
func maxDist2(a, b []geom.Point) float64 {
	d2Max := -1.0
	for _, p := range a {
		for _, q := range b {
			if d2 := p.Dist2(q); d2 > d2Max {
				d2Max = d2
			}
		}
	}
	if d2Max < 0 { // one of the sets is empty
		return math.Inf(1)
	}
	return d2Max
}

// maxDist2Within returns maxDist2(a, b) and true when every pair of a
// point of a and a point of b lies within r2 (d² ≤ r2) and below lim
// (d² < lim). At the first pair that does not, it stops and returns
// false, and it returns false when a set is empty, where maxDist2 is
// +Inf. A NaN pair, which maxDist2 skips, is skipped here too. So for
// non-NaN r2 and lim, ok reports maxDist2(a, b) ≤ r2 && maxDist2(a, b) <
// lim, and d2Max is maxDist2's value bit for bit.
func maxDist2Within(a, b []geom.Point, r2, lim float64) (d2Max float64, ok bool) {
	d2Max = -1
	for _, p := range a {
		for _, q := range b {
			d2 := p.Dist2(q)
			if d2 > r2 || d2 >= lim {
				return 0, false
			}
			if d2 > d2Max {
				d2Max = d2
			}
		}
	}
	return d2Max, d2Max >= 0
}

// distRange returns the smallest and largest squared distance between a
// point of a and a point of b (+Inf for both if either set is empty).
func distRange(a, b []geom.Point) (d2Min, d2Max float64) {
	d2Min = math.Inf(1)
	d2Max = -1
	for _, p := range a {
		for _, q := range b {
			d2 := p.Dist2(q)
			if d2 < d2Min {
				d2Min = d2
			}
			if d2 > d2Max {
				d2Max = d2
			}
		}
	}
	if d2Max < 0 { // one of the sets is empty
		return math.Inf(1), math.Inf(1)
	}
	return d2Min, d2Max
}
