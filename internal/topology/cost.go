// Package topology implements the paper's topology-control framework
// (§3–§4): link costs with a strict total order, local views, the
// logical-neighbor selection rules of the RNG-, Gabriel-, MST-, SPT- and
// Yao-based protocols, the enhanced (weakly consistent) selection rules,
// and transmission-range computation with buffer zones.
//
// Everything here is pure: selectors map a local view to a logical-neighbor
// set with no hidden state, which is what lets the same code run inside the
// discrete-event simulator (package manet), inside the omniscient snapshot
// analyzer (package snapshot), and inside property tests of Theorems 1–5.
package topology

import (
	"fmt"
	"math"
)

// CostFn maps a link's squared Euclidean length d² to its cost c(u,v)
// (§3.1). It must be strictly increasing so that cost order equals
// distance order. Any strictly increasing function of d gives the same
// total order over links, and d² is what a kernel gets from two
// coordinates without a square root: dx*dx + dy*dy, the same quantity the
// range tests and the radio compare against R².
type CostFn func(d2 float64) float64

// DistanceCost is the identity on d², used by the RNG- and MST-based
// protocols. It orders links exactly as c = d does, and those protocols
// only compare costs or take their maxima, never add them.
func DistanceCost(d2 float64) float64 { return d2 }

// EnergyCost returns the cost function c = d^alpha + fixed, computed as
// (d²)^(alpha/2) + fixed: the transmission energy model used by SPT-based
// (minimum-energy) protocols. The paper's simulation uses fixed = 0 with
// alpha = 2 (free space) and alpha = 4 (two-ray ground reflection).
func EnergyCost(alpha, fixed float64) CostFn {
	if alpha < 1 {
		panic(fmt.Sprintf("topology: EnergyCost alpha %g < 1", alpha))
	}
	return func(d2 float64) float64 { return energy(d2, alpha) + fixed }
}

// energy returns math.Pow(d2, alpha/2), bit for bit. For the paper's
// path-loss exponents it skips Pow's special-case ladder and
// Frexp/Ldexp: alpha = 2 is Pow(d2, 1), which returns d2 itself, and for
// alpha = 4 with 2⁻⁴⁰⁰ < d2 < 2⁴⁰⁰ the single product d2*d2 rounds exactly
// as the squaring step math.Pow runs on d2's mantissa (the power-of-two
// exponent scales out of the rounding, and d2² stays normal). The explicit
// conversion keeps the compiler from fusing the product into a caller's
// "+ fixed". TestEnergyMatchesPow pins it.
func energy(d2, alpha float64) float64 {
	switch alpha {
	case 2:
		return d2
	case 4:
		if d2 > 0x1p-400 && d2 < 0x1p400 {
			return float64(d2 * d2)
		}
	}
	return math.Pow(d2, alpha/2)
}

// LinkLess is the strict total order over links required by the framework:
// primarily by cost, with the canonical (min id, max id) pair breaking ties
// (§3.1: "If two links have the same cost, IDs of end nodes can be used to
// break a tie"). A strict total order is what makes simultaneous link
// removals safe in Theorem 1's proof.
func LinkLess(c1 float64, u1, v1 int, c2 float64, u2, v2 int) bool {
	if c1 != c2 { //lint:ignore float-eq exact compare is Theorem 1's strict total order over link costs
		return c1 < c2
	}
	if u1 > v1 {
		u1, v1 = v1, u1
	}
	if u2 > v2 {
		u2, v2 = v2, u2
	}
	if u1 != u2 {
		return u1 < u2
	}
	return v1 < v2
}
