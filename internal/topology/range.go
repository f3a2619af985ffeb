package topology

import "mstc/internal/geom"

// ActualRange returns the actual transmission range of a node (§3.3): the
// distance from self to the farthest logical neighbor in the view. A node
// with no logical neighbors gets range 0 (it still receives).
func ActualRange(v View, logical []int) float64 {
	r := 0.0
	for _, id := range logical {
		if n, ok := v.Find(id); ok {
			if d := v.Self.Pos.Dist(n.Pos); d > r {
				r = d
			}
		}
	}
	return r
}

// ActualRangeFrom returns the farthest distance from pos to any of the
// given neighbor positions — the multi-view variant of ActualRange, where
// the conservative caller passes the maximal per-neighbor distance.
func ActualRangeFrom(pos geom.Point, nbrs []geom.Point) float64 {
	r := 0.0
	for _, q := range nbrs {
		if d := pos.Dist(q); d > r {
			r = d
		}
	}
	return r
}

// BufferWidth returns the buffer-zone width l = 2·Δ″·v of Theorem 5, where
// maxDelay (Δ″) is the age bound on the oldest "Hello" message a current
// local view may depend on and maxSpeed (v) the maximal node speed. A node
// transmitting with range r + l is guaranteed to cover every logical
// neighbor selected from information at most maxDelay old.
func BufferWidth(maxDelay, maxSpeed float64) float64 {
	if maxDelay < 0 || maxSpeed < 0 {
		panic("topology: BufferWidth with negative argument")
	}
	return 2 * maxDelay * maxSpeed
}

// MaxDelayProactive returns Δ″ for the proactive strong-consistency scheme
// (§4.3): a view taken at t may depend on a "Hello" sent at t-Δ′ and stay
// in use until t+Δ′, so Δ″ = 2Δ′ where Δ′ is the synchronous delay
// (the "Hello" interval plus clock skew).
func MaxDelayProactive(syncDelay float64) float64 { return 2 * syncDelay }

// MaxDelayReactive returns Δ″ for the reactive scheme (§4.3): all "Hello"
// messages are sent at the start of the interval, so Δ″ is the interval
// plus the flooding propagation delay.
func MaxDelayReactive(helloInterval, floodDelay float64) float64 {
	return helloInterval + floodDelay
}

// MaxDelayWeak returns Δ″ for the weak-consistency scheme (§4.3): with k
// stored "Hello" messages per node, the oldest usable message is (k+1)
// intervals old.
func MaxDelayWeak(helloInterval float64, k int) float64 {
	return float64(k+1) * helloInterval
}

// rangeSlack widens transmission ranges by a relative 1e-9 (0.1 µm at
// 100 m) so that the farthest logical neighbor — which by construction sits
// *exactly* at the computed range — is covered regardless of how the
// coverage test rounds: a range is a rounded square root of the squared
// distance, and squaring it back for the radio's d² ≤ r² test need not
// return the same d².
const rangeSlack = 1 + 1e-9

// ExtendedRange returns the transmission range a node actually uses:
// actual + buffer, clamped to the normal transmission range (a radio cannot
// exceed its maximum power), with a negligible slack widening for
// float-rounding robustness at the boundary. A node with no logical
// neighbors (actual == 0) stays silent.
func ExtendedRange(actual, buffer, normal float64) float64 {
	if actual == 0 { //lint:ignore float-eq exact sentinel: a node with no selected neighbors stays silent
		// No logical neighbors selected: nothing to cover.
		return 0
	}
	r := (actual + buffer) * rangeSlack
	if r > normal {
		r = normal
	}
	return r
}
