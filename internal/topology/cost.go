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

// CostFn maps a link's Euclidean distance to its cost c(u,v) (§3.1).
// It must be strictly increasing so that cost order equals distance order.
type CostFn func(d float64) float64

// DistanceCost is c = d, used by RNG- and MST-based protocols.
func DistanceCost(d float64) float64 { return d }

// EnergyCost returns the cost function c = d^alpha + fixed, the transmission
// energy model used by SPT-based (minimum-energy) protocols. The paper's
// simulation uses fixed = 0 with alpha = 2 (free space) and alpha = 4
// (two-ray ground reflection).
func EnergyCost(alpha, fixed float64) CostFn {
	if alpha < 1 {
		panic(fmt.Sprintf("topology: EnergyCost alpha %g < 1", alpha))
	}
	return func(d float64) float64 { return energy(d, alpha) + fixed }
}

// energy returns math.Pow(d, alpha), bit for bit. For the paper's path-loss
// exponents 2 and 4 and 2⁻²⁰⁰ < d < 2²⁰⁰ it multiplies directly: d*d and
// (d*d)*(d*d) round exactly as the square-and-multiply steps math.Pow runs
// on d's mantissa (the power-of-two exponent scales out of each rounding,
// and d⁴ stays normal), without Pow's special-case ladder and
// Frexp/Ldexp. The explicit conversions keep the compiler from fusing the
// last product into a caller's "+ fixed". TestEnergyMatchesPow pins it.
func energy(d, alpha float64) float64 {
	if d > 0x1p-200 && d < 0x1p200 {
		switch alpha {
		case 2:
			return float64(d * d)
		case 4:
			s := d * d
			return float64(s * s)
		}
	}
	return math.Pow(d, alpha)
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
