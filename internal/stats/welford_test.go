package stats

import (
	"math"
	"testing"
)

// Closed-form checks: small integer datasets whose mean and variance are
// exact in float64, so equality is legitimate.

func TestWelfordClosedForm(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if w.Mean() != 5 { //lint:ignore float-eq integer dataset, mean exact in float64
		t.Errorf("Mean = %g, want 5", w.Mean())
	}
	// Deviations: -3,-1,-1,-1,0,0,2,4 → m2 = 32, unbiased variance 32/7.
	if got, want := w.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %g, want %g", got, want)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 { //lint:ignore float-eq zero-value contract, exact by construction
		t.Errorf("empty Welford not all-zero: %v", w)
	}
	w.Add(3.5)
	if w.Mean() != 3.5 { //lint:ignore float-eq single observation is returned exactly
		t.Errorf("Mean = %g, want 3.5", w.Mean())
	}
	if w.Variance() != 0 || w.CI95() != 0 { //lint:ignore float-eq n<2 contract returns exact zero
		t.Errorf("n=1 variance/CI not zero")
	}
}

func TestWelfordMatchesSample(t *testing.T) {
	// On benign data the two accumulators agree to rounding.
	var w Welford
	var s Sample
	x := 0.3
	for i := 0; i < 100; i++ {
		x = 3.9 * x * (1 - x) // logistic map: deterministic, aperiodic data
		w.Add(x)
		s.Add(x)
	}
	if math.Abs(w.Mean()-s.Mean()) > 1e-12 {
		t.Errorf("means diverge: welford %g sample %g", w.Mean(), s.Mean())
	}
	if math.Abs(w.Variance()-s.Variance()) > 1e-12 {
		t.Errorf("variances diverge: welford %g sample %g", w.Variance(), s.Variance())
	}
	if math.Abs(w.CI95()-s.CI95()) > 1e-12 {
		t.Errorf("CI95 diverge: welford %g sample %g", w.CI95(), s.CI95())
	}
}

func TestWelfordStableUnderOffset(t *testing.T) {
	// The motivating case: a large common offset with small spread. The
	// moment form loses every significant digit of the variance (float64
	// keeps ~16 digits; offset² ~1e18 swamps a spread² of 1e-2); Welford
	// keeps the exact answer. Data {c-1, c, c+1} has variance exactly 1.
	const c = 1e9
	var w Welford
	for _, x := range []float64{c - 1, c, c + 1} {
		w.Add(x)
	}
	if got := w.Variance(); math.Abs(got-1) > 1e-9 {
		t.Errorf("offset variance = %g, want 1", got)
	}
}

func TestWelfordCI95ClosedForm(t *testing.T) {
	// Four observations {0, 0, 2, 2}: mean 1, variance 4/3, df 3, t = 3.182
	// → CI = 3.182 · sqrt(4/3) / 2.
	var w Welford
	for _, x := range []float64{0, 0, 2, 2} {
		w.Add(x)
	}
	want := 3.182 * math.Sqrt(4.0/3.0) / 2
	if got := w.CI95(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CI95 = %g, want %g", got, want)
	}
}
