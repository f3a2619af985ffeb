package stats

import "math"

// Welford accumulates scalar observations with Welford's online algorithm:
// the running mean and the centered sum of squares M2 are updated per
// observation, so the variance never forms the catastrophically cancelling
// sum(x²) − n·mean² difference that Sample's moment form does. Use it where
// observations share a large common offset (e.g. per-run transmission ranges
// in the hundreds with millimeter spread); Sample keeps its moment form
// because its byte-exact output feeds the golden digests. The zero value is
// ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for an empty sample).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.mean
}

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n-1)
	if v < 0 { // numeric guard; m2 is non-negative up to rounding
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 returns the half-width of the 95 % Student-t confidence interval for
// the mean (0 for n < 2).
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return tCrit95(w.n-1) * w.StdDev() / math.Sqrt(float64(w.n))
}

// RelCI returns the relative 95 % confidence-interval half-width
// CI95/|mean|. It is zero-safe: no spread (n < 2, or zero variance) reads
// as 0, while spread around an exactly-zero mean reads as +Inf, the one
// undefined point of the ratio.
func (w *Welford) RelCI() float64 {
	ci := w.CI95()
	if ci == 0 { //lint:ignore float-eq CI95 is exactly 0 for n < 2 and for zero variance; both mean "no spread"
		return 0
	}
	mean := w.Mean()
	if mean == 0 { //lint:ignore float-eq exact-zero mean is the one undefined point of the ratio
		return math.Inf(1)
	}
	return ci / math.Abs(mean)
}
