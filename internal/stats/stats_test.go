package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mstc/internal/xrand"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Errorf("empty sample stats nonzero: %+v", s)
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(5)
	if s.Mean() != 5 || s.Variance() != 0 || s.CI95() != 0 {
		t.Errorf("single obs: mean=%v var=%v ci=%v", s.Mean(), s.Variance(), s.CI95())
	}
}

func TestKnownValues(t *testing.T) {
	// {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population var 4, sample var 32/7.
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7)
	}
	// CI95 with df=7: 2.365 * sqrt(32/7)/sqrt(8).
	want := 2.365 * math.Sqrt(32.0/7) / math.Sqrt(8)
	if math.Abs(s.CI95()-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestConstantSampleHasZeroVariance(t *testing.T) {
	var s Sample
	for i := 0; i < 100; i++ {
		s.Add(3.25)
	}
	if s.Variance() != 0 || s.CI95() != 0 {
		t.Errorf("constant sample: var=%v ci=%v", s.Variance(), s.CI95())
	}
}

func TestCI95Coverage(t *testing.T) {
	// The CI should contain the true mean ~95% of the time. With 400
	// experiments of 20 normal draws each, coverage within [0.90, 0.99].
	rng := xrand.New(99)
	hits := 0
	const experiments = 400
	for e := 0; e < experiments; e++ {
		var s Sample
		for i := 0; i < 20; i++ {
			s.Add(10 + 3*rng.NormFloat64())
		}
		if math.Abs(s.Mean()-10) <= s.CI95() {
			hits++
		}
	}
	cov := float64(hits) / experiments
	if cov < 0.90 || cov > 0.99 {
		t.Errorf("CI95 coverage = %v, want ~0.95", cov)
	}
}

func TestTCritMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		c := tCrit95(df)
		if c > prev+1e-12 {
			t.Fatalf("tCrit95 not non-increasing at df=%d: %v > %v", df, c, prev)
		}
		prev = c
	}
	if !math.IsNaN(tCrit95(0)) {
		t.Error("tCrit95(0) should be NaN")
	}
	if tCrit95(1000) != 1.960 {
		t.Errorf("large-df tCrit = %v", tCrit95(1000))
	}
}

func TestVarianceNeverNegative(t *testing.T) {
	f := func(base float64, n uint8) bool {
		if math.IsNaN(base) || math.IsInf(base, 0) || math.Abs(base) > 1e12 {
			return true
		}
		var s Sample
		for i := 0; i < int(n%50)+2; i++ {
			s.Add(base) // identical values: catastrophic cancellation risk
		}
		return s.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelCI(t *testing.T) {
	add := func(xs ...float64) *Welford {
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		return &w
	}
	// Closed form for {m-d, m+d}: sd = d*sqrt(2), CI95 = 12.706*d, so
	// RelCI = 12.706*d/|m|.
	cases := []struct {
		name string
		w    *Welford
		want float64
	}{
		{"empty", add(), 0},
		{"single", add(7), 0},
		{"constant", add(3, 3, 3), 0},
		{"zero-mean zero-spread", add(0, 0), 0},
		{"two-point", add(8, 12), 12.706 * 2 / 10},
		{"negative mean", add(-8, -12), 12.706 * 2 / 10},
	}
	for _, tc := range cases {
		if got := tc.w.RelCI(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: RelCI = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Spread around an exactly-zero mean: the ratio is undefined, and the
	// zero-safe convention reports +Inf so a threshold rule never stops on
	// it by accident.
	if got := add(-1, 1).RelCI(); !math.IsInf(got, 1) {
		t.Errorf("zero-mean spread: RelCI = %v, want +Inf", got)
	}
}

// TestRelCIWelfordMatchesSample: Welford's relative CI equals the
// moment-form Sample's CI95/|mean| on well-conditioned data.
func TestRelCIWelfordMatchesSample(t *testing.T) {
	rng := xrand.New(7)
	var s Sample
	var w Welford
	for i := 0; i < 40; i++ {
		x := rng.Uniform(50, 150)
		s.Add(x)
		w.Add(x)
	}
	if ds, dw := s.CI95()/math.Abs(s.Mean()), w.RelCI(); math.Abs(ds-dw) > 1e-12 {
		t.Errorf("Sample CI95/|mean| = %v, Welford.RelCI = %v", ds, dw)
	}
}

func TestString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(2)
	if got := s.String(); !strings.Contains(got, "±") {
		t.Errorf("String = %q", got)
	}
}
