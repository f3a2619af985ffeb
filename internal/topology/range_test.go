package topology

import (
	"math"
	"testing"
	"testing/quick"

	"mstc/internal/geom"
	"mstc/internal/xrand"
)

func TestActualRange(t *testing.T) {
	v := View{
		Self: NodeInfo{ID: 0, Pos: geom.Pt(0, 0)},
		Neighbors: []NodeInfo{
			{ID: 1, Pos: geom.Pt(30, 0)},
			{ID: 2, Pos: geom.Pt(0, 40)},
			{ID: 3, Pos: geom.Pt(100, 0)},
		},
	}.Canon()
	if got := ActualRange(v, []int{1, 2}); got != 40 {
		t.Errorf("ActualRange = %v, want 40", got)
	}
	if got := ActualRange(v, []int{1, 2, 3}); got != 100 {
		t.Errorf("ActualRange = %v, want 100", got)
	}
	if got := ActualRange(v, nil); got != 0 {
		t.Errorf("ActualRange(no logical) = %v, want 0", got)
	}
	// Unknown ids are ignored.
	if got := ActualRange(v, []int{99}); got != 0 {
		t.Errorf("ActualRange(unknown) = %v, want 0", got)
	}
}

func TestActualRangeFrom(t *testing.T) {
	got := ActualRangeFrom(geom.Pt(0, 0), []geom.Point{geom.Pt(3, 4), geom.Pt(1, 1)})
	if got != 5 {
		t.Errorf("ActualRangeFrom = %v, want 5", got)
	}
	if got := ActualRangeFrom(geom.Pt(0, 0), nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

func TestBufferWidthTheorem5Formula(t *testing.T) {
	// l = 2 Δ″ v. Paper's worst case (§5.2): Δ″ = 2.5 s (twice the
	// maximal Hello interval), twice-the-maximal relative speed folded
	// in by the factor 2.
	if got := BufferWidth(2.5, 20); got != 100 {
		t.Errorf("BufferWidth(2.5, 20) = %v, want 100", got)
	}
	if got := BufferWidth(0, 100); got != 0 {
		t.Errorf("BufferWidth(0, v) = %v, want 0", got)
	}
}

func TestBufferWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BufferWidth(-1, 1)
}

func TestMaxDelays(t *testing.T) {
	if got := MaxDelayProactive(1.25); got != 2.5 {
		t.Errorf("proactive = %v, want 2.5", got)
	}
	if got := MaxDelayReactive(1.0, 0.05); got != 1.05 {
		t.Errorf("reactive = %v, want 1.05", got)
	}
	if got := MaxDelayWeak(1.0, 2); got != 3 {
		t.Errorf("weak = %v, want 3", got)
	}
}

func TestExtendedRange(t *testing.T) {
	if got := ExtendedRange(80, 10, 250); math.Abs(got-90) > 90*2e-9 {
		t.Errorf("ExtendedRange = %v, want ~90", got)
	}
	if got := ExtendedRange(80, 10, 250); got < 90 {
		t.Errorf("ExtendedRange = %v must not round below 90 (boundary coverage)", got)
	}
	// Clamped to the normal range.
	if got := ExtendedRange(200, 100, 250); got != 250 {
		t.Errorf("clamped = %v, want 250", got)
	}
	// No logical neighbors: stays silent.
	if got := ExtendedRange(0, 100, 250); got != 0 {
		t.Errorf("silent = %v, want 0", got)
	}
}

func TestExtendedRangeMonotoneProperty(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%250) + 1
		b1 := float64(bRaw % 100)
		b2 := b1 + 5
		return ExtendedRange(a, b2, 250) >= ExtendedRange(a, b1, 250)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTheorem5CoverageBound is the core of the buffer-zone guarantee: if a
// node selected a logical neighbor from position information at most
// maxDelay old, and both endpoints have since moved at most maxSpeed *
// maxDelay, the current distance cannot exceed measured + 2*maxDelay*
// maxSpeed = r + l. This is the inequality in Theorem 5's proof; we verify
// it by adversarial random motion.
func TestTheorem5CoverageBound(t *testing.T) {
	f := func(seed uint64) bool {
		// Random measured configuration and arbitrary per-node movement
		// within the speed/delay budget.
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		const maxDelay, maxSpeed = 2.5, 40.0
		u0 := geom.Pt(next()*900, next()*900)
		v0 := geom.Pt(next()*900, next()*900)
		measured := u0.Dist(v0)
		budget := maxDelay * maxSpeed
		u1 := u0.Add(geom.Polar(next()*budget, next()*6.28))
		v1 := v0.Add(geom.Polar(next()*budget, next()*6.28))
		l := BufferWidth(maxDelay, maxSpeed)
		return u1.Dist(v1) <= measured+l+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestEnergyCostPanics pins that the energy-cost kernels reject a
// path-loss exponent below 1, for which d^alpha is not a usable energy.
func TestEnergyCostPanics(t *testing.T) {
	v := View{Self: NodeInfo{ID: 0}, Neighbors: []NodeInfo{{ID: 1, Pos: geom.Pt(1, 0)}}}
	mv := MultiView{Self: MultiNodeInfo{ID: 0, Positions: []geom.Point{{}}}}
	for _, tc := range []struct {
		name string
		sel  func()
	}{
		{"SPT", func() { SPT{Alpha: 0.5}.SelectInto(v, nil, &Scratch{}) }},
		{"WeakSPT", func() { WeakSPT{Alpha: 0.5}.SelectWeakInto(mv, nil, &Scratch{}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for alpha < 1", tc.name)
				}
			}()
			tc.sel()
		}()
	}
}

// TestEnergyMatchesPow pins energy's fast paths for the paper's path-loss
// exponents to math.Pow(d2, alpha/2) bit for bit: over squared lengths
// spread across the whole exponent range (both sides of the alpha = 4
// bounds) and over the edge values.
func TestEnergyMatchesPow(t *testing.T) {
	d2s := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1030, 1e-300, 0x1p-400,
		math.Nextafter(0x1p-400, 1), 1, 62500, math.Nextafter(0x1p400, 0), 0x1p400,
		1e300, math.MaxFloat64, math.Inf(1)}
	rng := xrand.New(77)
	for i := 0; i < 100000; i++ {
		d := rng.Uniform(0, 1000)
		d2s = append(d2s, d*d, math.Ldexp(rng.Uniform(0.5, 1), rng.Intn(2200)-1100))
	}
	for _, d2 := range d2s {
		for _, alpha := range []float64{2, 4} {
			if got, want := energy(d2, alpha), math.Pow(d2, alpha/2); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("energy(%g, %g) = %g (%#x), math.Pow = %g (%#x)",
					d2, alpha, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestLinkLessTotalOrder(t *testing.T) {
	// Strictness: a link is never less than itself.
	if LinkLess(5, 1, 2, 5, 2, 1) {
		t.Error("LinkLess must treat (1,2) and (2,1) as the same link")
	}
	// Cost dominates.
	if !LinkLess(4, 9, 8, 5, 0, 1) {
		t.Error("smaller cost must win")
	}
	// Tie broken by canonical pair.
	if !LinkLess(5, 1, 3, 5, 2, 3) {
		t.Error("tie must break toward smaller min id")
	}
	if !LinkLess(5, 1, 2, 5, 1, 3) {
		t.Error("tie must break toward smaller max id")
	}
	// Antisymmetry under ties.
	if LinkLess(5, 2, 3, 5, 1, 3) {
		t.Error("antisymmetry violated")
	}
}
