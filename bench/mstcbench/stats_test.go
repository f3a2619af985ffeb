package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		if got := quantile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
	if got := quantile([]float64{3}, 0.9); got != 3 {
		t.Errorf("quantile(single) = %v, want 3", got)
	}
}

// TestQuartilesMatchPython pins quartiles to CPython's
// statistics.quantiles(xs, n=4) (exclusive method), which the acceptance
// spreads are computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // CPython extrapolates here
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{7, 7, 7, 7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("relIQR(1..10) = %v, want 1", got)
	}
}
