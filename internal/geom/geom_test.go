package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-2, -3), Pt(2, 0), 5},
		{Pt(0, 0), Pt(0, 7.5), 7.5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want) {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); !almostEq(got, c.want*c.want) {
			t.Errorf("Dist2(%v, %v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Pt(ax, ay), Pt(bx, by)
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		// Small integer coordinates keep floating error negligible.
		a, b, c := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)), Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpAndMid(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Mid(q); got != Pt(5, 10) {
		t.Errorf("Mid = %v, want (5,10)", got)
	}
	if got := p.Lerp(q, 2); got != Pt(20, 40) {
		t.Errorf("Lerp(2) = %v, want (20,40) (extrapolation)", got)
	}
}

func TestVectorOps(t *testing.T) {
	v, w := Vec(3, 4), Vec(-4, 3)
	if got := v.Len(); !almostEq(got, 5) {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := v.Cross(w); !almostEq(got, 25) {
		t.Errorf("Cross = %v, want 25", got)
	}
	if got := v.Add(w); got != Vec(-1, 7) {
		t.Errorf("Add = %v, want (-1,7)", got)
	}
	if got := v.Scale(2); got != Vec(6, 8) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	u := v.Unit()
	if !almostEq(u.Len(), 1) {
		t.Errorf("Unit length = %v, want 1", u.Len())
	}
	if z := Vec(0, 0).Unit(); z != Vec(0, 0) {
		t.Errorf("Unit of zero vector = %v, want zero", z)
	}
}

func TestPolarRoundTrip(t *testing.T) {
	f := func(lenRaw, angRaw float64) bool {
		if math.IsNaN(lenRaw) || math.IsInf(lenRaw, 0) || math.IsNaN(angRaw) || math.IsInf(angRaw, 0) {
			return true
		}
		length := math.Mod(math.Abs(lenRaw), 1e6) + 0.001
		angle := math.Mod(angRaw, math.Pi) // stay within principal range
		v := Polar(length, angle)
		return math.Abs(v.Len()-length) < 1e-6*length && math.Abs(v.Angle()-angle) < 1e-9 ||
			math.Abs(math.Abs(v.Angle())+math.Abs(angle)-2*math.Pi) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Pt(10, 20), Pt(0, 5))
	if r.Min != Pt(0, 5) || r.Max != Pt(10, 20) {
		t.Fatalf("NewRect did not normalize corners: %+v", r)
	}
	if got := r.Width(); got != 10 {
		t.Errorf("Width = %v, want 10", got)
	}
	if got := r.Height(); got != 15 {
		t.Errorf("Height = %v, want 15", got)
	}
	if got := r.Area(); got != 150 {
		t.Errorf("Area = %v, want 150", got)
	}
	if !Pt(0, 5).In(r) || !Pt(10, 20).In(r) || !Pt(5, 10).In(r) {
		t.Error("boundary and interior points should be In the rect")
	}
	if Pt(-0.001, 5).In(r) || Pt(5, 20.001).In(r) {
		t.Error("outside points must not be In the rect")
	}
}

func TestRectEmptyAndClamp(t *testing.T) {
	e := Rect{Min: Pt(1, 1), Max: Pt(0, 0)}
	if !e.Empty() {
		t.Error("inverted rect should be Empty")
	}
	if got := e.Area(); got != 0 {
		t.Errorf("empty Area = %v, want 0", got)
	}
	r := Square(900)
	cases := []struct{ in, want Point }{
		{Pt(-5, 450), Pt(0, 450)},
		{Pt(950, -1), Pt(900, 0)},
		{Pt(450, 450), Pt(450, 450)},
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRectEmptyNaN: a rectangle with a NaN bound contains no point, so it
// is Empty, with an Area of 0; finite, infinite and degenerate bounds keep
// the answer of the ordered comparison.
func TestRectEmptyNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range []Rect{
		Square(nan),
		{Min: Pt(nan, 0), Max: Pt(10, 10)},
		{Min: Pt(0, 0), Max: Pt(10, nan)},
		{Min: Pt(0, nan), Max: Pt(nan, 10)},
	} {
		if !r.Empty() {
			t.Errorf("%+v is not Empty", r)
		}
		if a := r.Area(); a != 0 {
			t.Errorf("%+v: Area %v, want 0", r, a)
		}
	}
	for _, c := range []struct {
		r     Rect
		empty bool
	}{
		{Square(0), false}, // a single point
		{Square(900), false},
		{Square(inf), false},
		{Square(-1), true},
		{Rect{Min: Pt(0, 5), Max: Pt(10, 4)}, true},
		{Rect{Min: Pt(-inf, -inf), Max: Pt(inf, inf)}, false},
	} {
		if got := c.r.Empty(); got != c.empty {
			t.Errorf("%+v: Empty %v, want %v", c.r, got, c.empty)
		}
	}
}

func TestRectExtend(t *testing.T) {
	empty := Rect{Min: Pt(math.Inf(1), math.Inf(1)), Max: Pt(math.Inf(-1), math.Inf(-1))}
	if !empty.Empty() {
		t.Fatal("the starting box should be Empty")
	}
	box := empty
	pts := []Point{Pt(3, -2), Pt(-1, 7), Pt(2, 2)}
	for _, p := range pts {
		box = box.Extend(p)
	}
	if want := NewRect(Pt(-1, -2), Pt(3, 7)); box != want {
		t.Errorf("Extend box = %+v, want %+v", box, want)
	}
	for _, p := range pts {
		if !p.In(box) {
			t.Errorf("%v not In its bounding box %+v", p, box)
		}
	}
	if got := empty.Extend(Pt(4, 5)); got != NewRect(Pt(4, 5), Pt(4, 5)) {
		t.Errorf("one-point box = %+v, want the point", got)
	}
}

func TestSquare(t *testing.T) {
	r := Square(900)
	if r.Min != Pt(0, 0) || r.Max != Pt(900, 900) {
		t.Fatalf("Square(900) = %+v", r)
	}
}

// TestInLuneMatchesPaperFig2 checks the RNG lune predicate on the geometry of
// the paper's Fig. 2: u=(0,0), v=(4,3), w at (4,-1) has d(u,w)=sqrt(17),
// d(v,w)=4, d(u,v)=5 so w is inside the lune of (u,v).
func TestInLuneMatchesPaperFig2(t *testing.T) {
	u, v, w := Pt(0, 0), Pt(4, 3), Pt(4, -1)
	if !InLune(w, u, v) {
		t.Error("w should be inside lune(u,v)")
	}
	// Symmetric in u, v.
	if !InLune(w, v, u) {
		t.Error("lune test must be symmetric in u and v")
	}
	// u itself is never inside its own lune.
	if InLune(u, u, v) {
		t.Error("endpoint must not be inside the lune")
	}
}

func TestInGabrielDiskSubsetOfLune(t *testing.T) {
	// The Gabriel disk is a subset of the lune: any w in the Gabriel disk
	// must be in the lune.
	f := func(ux, uy, vx, vy, wx, wy int16) bool {
		u, v, w := Pt(float64(ux), float64(uy)), Pt(float64(vx), float64(vy)), Pt(float64(wx), float64(wy))
		if u == v {
			return true
		}
		if InGabrielDisk(w, u, v) {
			return InLune(w, u, v)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestConeIndex(t *testing.T) {
	apex := Pt(0, 0)
	k := 6
	cases := []struct {
		p    Point
		want int
	}{
		{Pt(1, 0.001), 0},     // just above +x axis
		{Pt(1, 1), 0},         // 45° < 60°
		{Pt(0, 1), 1},         // 90°
		{Pt(-1, 0.001), 2},    // just under 180°
		{Pt(-1, -0.001), 3},   // just over 180°
		{Pt(0.001, -1), 4},    // ~270°
		{Pt(1, -0.001), 5},    // just below +x axis
		{Pt(1, -0.000001), 5}, // approaching 2π stays in last cone
	}
	for _, c := range cases {
		if got := ConeIndex(apex, c.p, k); got != c.want {
			t.Errorf("ConeIndex(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestConeIndexRangeProperty(t *testing.T) {
	f := func(px, py float64, kRaw uint8) bool {
		if math.IsNaN(px) || math.IsNaN(py) || math.IsInf(px, 0) || math.IsInf(py, 0) {
			return true
		}
		k := int(kRaw%12) + 1
		i := ConeIndex(Pt(0, 0), Pt(px, py), k)
		return i >= 0 && i < k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConeIndexPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k <= 0")
		}
	}()
	ConeIndex(Pt(0, 0), Pt(1, 1), 0)
}

func TestStringFormats(t *testing.T) {
	if got := Pt(1, 2).String(); got != "(1.000, 2.000)" {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkDist2(b *testing.B) {
	p, q := Pt(1.5, 2.5), Pt(400.25, 817.5)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Dist2(q)
	}
	_ = sink
}

func TestSegmentIntersection(t *testing.T) {
	// Crossing diagonals of a square meet at the center.
	p, ok := SegmentIntersection(Pt(0, 0), Pt(10, 10), Pt(0, 10), Pt(10, 0))
	if !ok || !almostEq(p.X, 5) || !almostEq(p.Y, 5) {
		t.Errorf("intersection = %v, %v", p, ok)
	}
	// Disjoint parallel segments.
	if _, ok := SegmentIntersection(Pt(0, 0), Pt(10, 0), Pt(0, 1), Pt(10, 1)); ok {
		t.Error("parallel segments intersected")
	}
	// Collinear overlap reports no intersection by contract.
	if _, ok := SegmentIntersection(Pt(0, 0), Pt(10, 0), Pt(5, 0), Pt(15, 0)); ok {
		t.Error("collinear overlap should report none")
	}
	// Segments whose lines cross beyond the endpoints.
	if _, ok := SegmentIntersection(Pt(0, 0), Pt(1, 1), Pt(0, 10), Pt(10, 0)); ok {
		t.Error("non-overlapping segments intersected")
	}
	// Touching at an endpoint counts (closed segments).
	if _, ok := SegmentIntersection(Pt(0, 0), Pt(5, 5), Pt(5, 5), Pt(9, 0)); !ok {
		t.Error("endpoint touch missed")
	}
}

func TestSegmentIntersectionSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		a, b := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		c, d := Pt(float64(cx), float64(cy)), Pt(float64(dx), float64(dy))
		_, ok1 := SegmentIntersection(a, b, c, d)
		_, ok2 := SegmentIntersection(c, d, a, b)
		_, ok3 := SegmentIntersection(b, a, d, c)
		return ok1 == ok2 && ok2 == ok3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
