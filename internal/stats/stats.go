// Package stats provides the summary statistics the evaluation reports:
// sample mean, variance, and Student-t 95 % confidence intervals over
// independent simulation repetitions (§5.1: "Each result is associated with
// a 95 percent confidence interval").
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates scalar observations. The zero value is ready to use.
type Sample struct {
	n    int
	sum  float64
	sum2 float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	s.sum += x
	s.sum2 += x * x
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := (s.sum2 - float64(s.n)*m*m) / float64(s.n-1)
	if v < 0 { // numeric guard
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CI95 returns the half-width of the 95 % confidence interval for the mean
// using the Student-t distribution (0 for n < 2).
func (s *Sample) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return tCrit95(s.n-1) * s.StdDev() / math.Sqrt(float64(s.n))
}

// String formats mean ± CI95.
func (s *Sample) String() string {
	return fmt.Sprintf("%.4f ± %.4f", s.Mean(), s.CI95())
}

// tCrit95 returns the two-sided 95 % critical value of Student's t with the
// given degrees of freedom. Exact table through 30 df, then the common
// large-sample approximations.
func tCrit95(df int) float64 {
	table := [...]float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df < len(table):
		return table[df]
	case df < 40:
		return 2.030
	case df < 60:
		return 2.009
	case df < 120:
		return 1.990
	default:
		return 1.960
	}
}
