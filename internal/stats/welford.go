package stats

import (
	"fmt"
	"math"
)

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

// String formats mean ± CI95.
func (w *Welford) String() string {
	return fmt.Sprintf("%.4f ± %.4f", w.Mean(), w.CI95())
}

// RelCI returns the relative 95 % confidence-interval half-width
// CI95/|mean|, with the same zero-safe convention as Sample.RelCI: 0
// when there is no spread, +Inf for spread around a zero mean.
func (w *Welford) RelCI() float64 { return relCI(w.Mean(), w.CI95()) }

// State exposes the accumulator's internal triple (n, mean, M2) so a
// partial can be serialized and rebuilt bit-exactly with
// WelfordFromState on the merging side.
func (w Welford) State() (n int, mean, m2 float64) {
	return w.n, w.mean, w.m2
}

// WelfordFromState rebuilds the accumulator State exported. Passing a
// triple not produced by State yields an accumulator whose statistics
// are whatever the triple encodes; garbage in, garbage out.
func WelfordFromState(n int, mean, m2 float64) Welford {
	return Welford{n: n, mean: mean, m2: m2}
}

// Merge folds the observations of o into w (Chan et al.'s pairwise update),
// preserving the algorithm's numerical behavior across per-worker partials.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := float64(w.n + o.n)
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/n
	w.mean += d * float64(o.n) / n
	w.n += o.n
}
