package topology

import (
	"fmt"
	"math"
	"sort"
)

// CBTC is the cone-based topology control protocol (Li, Halpern, Bahl,
// Wang & Wattenhofer 2001; §2.1): node u grows its power — here, walks its
// neighbor list in distance order — until every cone of angle Alpha around
// u contains a selected neighbor, i.e. until the maximal angular gap
// between consecutive selected neighbors is at most Alpha (or until all
// neighbors are selected, the boundary-node case).
//
// Guarantees (proven in the original paper and restated in §2.1):
//   - Alpha <= 5π/6: the union of selections (keeping unidirectional
//     links) is connected whenever the original topology is.
//   - Alpha <= 2π/3: the symmetric subgraph (removing unidirectional
//     links — the framework's AND semantics) is connected.
//
// The original protocol's "shrink-back" optimization compensates for the
// power-growth overshoot of its iterative beaconing; the view-based
// formulation here adds neighbors one at a time in distance order, so the
// final set is already minimal and no shrink-back pass is needed. (More
// aggressive pruning — removing any neighbor whose removal preserves cone
// coverage — empirically breaks the 2π/3 symmetric-connectivity guarantee
// and is deliberately not offered.)
type CBTC struct {
	// Alpha is the cone angle in radians (2π/3 and 5π/6 are the
	// meaningful operating points).
	Alpha float64
}

// Name implements Protocol.
func (c CBTC) Name() string {
	return fmt.Sprintf("CBTC-%.2f", c.Alpha)
}

// Select implements Protocol.
func (c CBTC) Select(v View) []int {
	if c.Alpha <= 0 || c.Alpha > 2*math.Pi {
		panic(fmt.Sprintf("topology: CBTC with alpha %g", c.Alpha))
	}
	n := len(v.Neighbors)
	if n == 0 {
		return nil
	}
	// Distance order with the framework's id tie-breaking.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := v.Neighbors[order[a]], v.Neighbors[order[b]]
		return LinkLess(v.Self.Pos.Dist2(na.Pos), v.Self.ID, na.ID,
			v.Self.Pos.Dist2(nb.Pos), v.Self.ID, nb.ID)
	})
	angles := make([]float64, n)
	for i, nb := range v.Neighbors {
		angles[i] = nb.Pos.Sub(v.Self.Pos).Angle()
	}
	selected := make([]bool, n)
	count := 0
	for _, idx := range order {
		selected[idx] = true
		count++
		if coneCovered(angles, selected, count, c.Alpha) {
			break
		}
	}
	out := make([]int, 0, count)
	for i, nb := range v.Neighbors {
		if selected[i] {
			out = append(out, nb.ID)
		}
	}
	sortInts(out)
	return out
}

// coneCovered reports whether the selected directions leave no angular gap
// larger than alpha.
func coneCovered(angles []float64, selected []bool, count int, alpha float64) bool {
	if count == 0 {
		return false
	}
	sel := make([]float64, 0, count)
	for i, ok := range selected {
		if ok {
			sel = append(sel, angles[i])
		}
	}
	if len(sel) == 1 {
		// A single neighbor covers only if alpha is the full circle.
		return alpha >= 2*math.Pi
	}
	sort.Float64s(sel)
	maxGap := sel[0] + 2*math.Pi - sel[len(sel)-1]
	for i := 1; i < len(sel); i++ {
		if g := sel[i] - sel[i-1]; g > maxGap {
			maxGap = g
		}
	}
	return maxGap <= alpha
}

// KNeigh is the K-Neigh protocol (Blough, Leoncini, Resta & Santi 2003;
// §2.2): every node simply keeps its K nearest neighbors. Unlike the
// geometric protocols it offers only probabilistic connectivity — Blough et
// al. report 95 % network connectivity at K = 9 — which is the comparison
// point of §5.2: the paper's mechanisms tolerate moderate mobility with
// average degrees 3.8–5.4, below K-Neigh's uniform 9.
type KNeigh struct {
	// K is the number of nearest neighbors kept.
	K int
}

// Name implements Protocol.
func (k KNeigh) Name() string { return fmt.Sprintf("KNeigh-%d", k.K) }

// Select implements Protocol.
func (k KNeigh) Select(v View) []int {
	if k.K < 1 {
		panic(fmt.Sprintf("topology: KNeigh with K = %d", k.K))
	}
	n := len(v.Neighbors)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := v.Neighbors[order[a]], v.Neighbors[order[b]]
		return LinkLess(v.Self.Pos.Dist2(na.Pos), v.Self.ID, na.ID,
			v.Self.Pos.Dist2(nb.Pos), v.Self.ID, nb.ID)
	})
	if n > k.K {
		order = order[:k.K]
	}
	out := make([]int, 0, len(order))
	for _, idx := range order {
		out = append(out, v.Neighbors[idx].ID)
	}
	sortInts(out)
	return out
}
