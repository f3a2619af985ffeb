// Package geom provides the 2-D geometric primitives used throughout the
// simulator: points, vectors, distance predicates, angles, and the
// deterministic tie-breaking helpers that topology-control protocols rely on
// to form a total order over link costs.
//
// All coordinates are in meters and all angles in radians. The package is
// allocation-free on its hot paths (distance and containment tests), which
// matters because the radio model and the protocol selectors call them for
// every neighbor pair at every sample instant.
package geom

import (
	"fmt"
	"math"
)

// Eps is the default absolute tolerance for approximate float comparison:
// coordinates are meters in a sub-kilometer arena, so 1e-9 is far below any
// physically meaningful difference while far above accumulated rounding.
const Eps = 1e-9

// Eq reports whether a and b are equal within Eps. Use it instead of == on
// computed floats; reserve exact comparison for deliberate sentinel checks
// and total-order tie-breaking (and annotate those for manetlint).
func Eq(a, b float64) bool {
	return math.Abs(a-b) <= Eps
}

// Zero reports whether x is zero within Eps.
func Zero(x float64) bool {
	return math.Abs(x) <= Eps
}

// Point is a location in the 2-D plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. Prefer it in
// comparisons: it avoids the square root and is exact for representable
// inputs.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q. t outside
// [0, 1] extrapolates along the line through p and q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Mid returns the midpoint of segment pq.
func (p Point) Mid(q Point) Point { return p.Lerp(q, 0.5) }

// In reports whether p lies inside the axis-aligned rectangle r
// (inclusive of the boundary).
func (p Point) In(r Rect) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Vector is a displacement in the plane, in meters.
type Vector struct {
	DX, DY float64
}

// Vec is shorthand for Vector{dx, dy}.
func Vec(dx, dy float64) Vector { return Vector{dx, dy} }

// Add returns the vector sum v + w.
func (v Vector) Add(w Vector) Vector { return Vector{v.DX + w.DX, v.DY + w.DY} }

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.DX * s, v.DY * s} }

// Len returns the Euclidean length of v.
func (v Vector) Len() float64 { return math.Hypot(v.DX, v.DY) }

// Cross returns the z-component of the 3-D cross product v×w. Its sign gives
// the orientation of the turn from v to w (positive = counter-clockwise).
func (v Vector) Cross(w Vector) float64 { return v.DX*w.DY - v.DY*w.DX }

// Angle returns the angle of v in radians in (-π, π], measured
// counter-clockwise from the positive x-axis. The zero vector yields 0.
func (v Vector) Angle() float64 { return math.Atan2(v.DY, v.DX) }

// Unit returns the unit vector in the direction of v. The zero vector is
// returned unchanged.
func (v Vector) Unit() Vector {
	l := v.Len()
	if l == 0 { //lint:ignore float-eq only the exact zero vector has no direction; near-zero vectors normalize fine
		return v
	}
	return Vector{v.DX / l, v.DY / l}
}

// Polar returns the vector of the given length pointing at the given angle
// (radians, counter-clockwise from the positive x-axis).
func Polar(length, angle float64) Vector {
	s, c := math.Sincos(angle)
	return Vector{length * c, length * s}
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner, Max the
// upper-right. A Rect with Max coordinates below Min is empty.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points, normalizing
// the corner order.
func NewRect(a, b Point) Rect {
	if a.X > b.X {
		a.X, b.X = b.X, a.X
	}
	if a.Y > b.Y {
		a.Y, b.Y = b.Y, a.Y
	}
	return Rect{Min: a, Max: b}
}

// Square returns the axis-aligned square [0,side]×[0,side] — the standard
// simulation arena shape.
func Square(side float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{side, side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r (0 for empty rectangles).
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Empty reports whether r contains no points. A NaN bound contains none:
// the test is written so that every comparison with NaN, which is false,
// makes the rectangle empty.
func (r Rect) Empty() bool { return !(r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y) }

// Extend returns the smallest rectangle containing both r and p. Extending
// a rectangle with Min at +Inf and Max at -Inf yields the point itself,
// so a bounding box can start from that empty rectangle.
func (r Rect) Extend(p Point) Rect {
	r.Min.X = math.Min(r.Min.X, p.X)
	r.Min.Y = math.Min(r.Min.Y, p.Y)
	r.Max.X = math.Max(r.Max.X, p.X)
	r.Max.Y = math.Max(r.Max.Y, p.Y)
	return r
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	p.X = math.Max(r.Min.X, math.Min(r.Max.X, p.X))
	p.Y = math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y))
	return p
}

// InGabrielDisk reports whether w lies strictly inside the disk whose
// diameter is the segment uv — the region test of the Gabriel graph.
func InGabrielDisk(w, u, v Point) bool {
	return w.Dist2(u.Mid(v)) < u.Dist2(v)/4
}

// InLune reports whether w lies strictly inside the lune of u and v: the
// intersection of the open disks of radius |uv| centered at u and at v.
// This is the region test of the relative neighborhood graph.
func InLune(w, u, v Point) bool {
	d2 := u.Dist2(v)
	return w.Dist2(u) < d2 && w.Dist2(v) < d2
}

// SegmentIntersection returns the intersection point of the closed
// segments ab and cd, if there is exactly one. Collinear overlaps report no
// intersection (they are measure-zero for the random configurations the
// simulator produces, and face routing treats them as non-crossing).
func SegmentIntersection(a, b, c, d Point) (Point, bool) {
	r := b.Sub(a)
	s := d.Sub(c)
	denom := r.Cross(s)
	if denom == 0 { //lint:ignore float-eq exact parallelism test; collinear overlaps are documented as non-crossing
		return Point{}, false
	}
	t := c.Sub(a).Cross(s) / denom
	u := c.Sub(a).Cross(r) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return Point{}, false
	}
	return a.Add(r.Scale(t)), true
}

// ConeIndex returns which of k equal cones around apex the point p falls in.
// Cone 0 spans angles [0, 2π/k) measured counter-clockwise from the positive
// x-axis. p equal to apex maps to cone 0.
func ConeIndex(apex, p Point, k int) int {
	if k <= 0 {
		panic("geom: ConeIndex requires k > 0")
	}
	a := p.Sub(apex).Angle()
	if a < 0 {
		a += 2 * math.Pi
	}
	i := int(a / (2 * math.Pi / float64(k)))
	if i >= k { // guard against a == 2π from rounding
		i = k - 1
	}
	return i
}
