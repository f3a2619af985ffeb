package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method: quantile(xs, 0) is the minimum and
// quantile(xs, 1) the maximum). xs need not be sorted and is not modified.
// It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method Python's statistics.quantiles(xs, n=4) uses,
// so spreads computed here match the ones the acceptance check computes.
// Samples of fewer than two values return that value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	at := func(i int) float64 {
		// CPython's exclusive method, clamping included (which extrapolates
		// for very small samples).
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// relIQR is the interquartile range of xs as a share of its median (0 when
// the median is 0).
func relIQR(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 { return inUnits(ds, time.Millisecond) }

// inUnits converts durations to floats in the given unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// ratio returns a/b, or 0 when b is 0 (a metric that does not apply to a
// workload reads 0, never NaN, so every result line stays valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
