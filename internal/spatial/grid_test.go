package spatial

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

var arena = geom.Square(900)

// bruteWithin is the O(n) reference for the grid queries: it appends to
// dst the ids of every point within distance r of p, ascending.
func bruteWithin(points []geom.Point, p geom.Point, r float64, dst []int) []int {
	r2 := r * r
	for id := range points {
		if points[id].Dist2(p) <= r2 {
			dst = append(dst, id)
		}
	}
	return dst
}

// within is WithinUnsorted's answer sorted, for comparison with
// bruteWithin and with literal id lists.
func within(ix *Index, p geom.Point, r float64) []int {
	got := ix.WithinUnsorted(p, r, nil)
	sort.Ints(got)
	return got
}

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(arena, 0); err == nil {
		t.Error("cell=0 accepted")
	}
	if _, err := NewIndex(arena, -5); err == nil {
		t.Error("negative cell accepted")
	}
	if _, err := NewIndex(geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(0, 0)}, 10); err == nil {
		t.Error("empty arena accepted")
	}
	if _, err := NewIndex(arena, 250); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// A cell far below the arena's scale would allocate the offsets of
	// billions of cells; NaN and infinite sizes have no cell count at all.
	for _, cell := range []float64{1e-3, 1e-300, math.NaN(), math.Inf(1)} {
		if _, err := NewIndex(arena, cell); err == nil {
			t.Errorf("cell=%g accepted", cell)
		}
	}
}

// TestCountWithinMatchesWithinUnsorted: CountWithin is the length of
// WithinUnsorted's answer for every query, including negative and zero
// radii, radii wider than the arena (up to 1e300 m and +Inf, whose cell
// offsets overflow an int), and points and query centres outside the
// arena, which clamp to edge cells.
func TestCountWithinMatchesWithinUnsorted(t *testing.T) {
	rng := xrand.New(11)
	pts := make([]geom.Point, 150)
	for i := range pts {
		pts[i] = geom.Pt(rng.Uniform(-200, 1100), rng.Uniform(-200, 1100))
	}
	pts[7] = pts[3] // a duplicate: distance 0 under r = 0
	radii := []float64{-1, 0, 1, 60, 125, 250, 2000, 1e300, math.Inf(1)}
	for _, cell := range []float64{50, 125, 700} {
		ix := MustIndex(arena, cell)
		ix.Build(pts)
		centres := append([]geom.Point{geom.Pt(-500, -500), geom.Pt(1400, 450), geom.Pt(450, 450)}, pts[:40]...)
		for _, p := range centres {
			for _, r := range radii {
				want := len(ix.WithinUnsorted(p, r, nil))
				if got := ix.CountWithin(p, r); got != want {
					t.Fatalf("cell %g: CountWithin(%v, %g) = %d, WithinUnsorted has %d", cell, p, r, got, want)
				}
				if ref := len(bruteWithin(pts, p, r, nil)); r >= 0 && want != ref {
					t.Fatalf("cell %g: WithinUnsorted(%v, %g) has %d, brute force %d", cell, p, r, want, ref)
				}
			}
		}
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex should panic on bad cell")
		}
	}()
	MustIndex(arena, 0)
}

func TestWithinSimple(t *testing.T) {
	ix := MustIndex(arena, 100)
	pts := []geom.Point{
		geom.Pt(100, 100), // 0
		geom.Pt(150, 100), // 1: 50 from 0
		geom.Pt(100, 400), // 2: 300 from 0
		geom.Pt(103, 104), // 3: 5 from 0
	}
	ix.Build(pts)
	got := within(ix, geom.Pt(100, 100), 60)
	want := []int{0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Within = %v, want %v", got, want)
	}
	// Boundary inclusive.
	got = within(ix, geom.Pt(100, 100), 50)
	want = []int{0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Within(50) = %v, want %v (boundary inclusive)", got, want)
	}
	got = within(ix, geom.Pt(100, 100), 49.999)
	want = []int{0, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Within(49.999) = %v, want %v", got, want)
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	ix := MustIndex(arena, 100)
	ix.Build([]geom.Point{geom.Pt(1, 1)})
	if got := ix.WithinUnsorted(geom.Pt(1, 1), -1, nil); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
	if got := ix.WithinClipped(geom.Pt(1, 1), -1, arena, nil); len(got) != 0 {
		t.Errorf("negative radius returned %v from the clipped query", got)
	}
}

func TestWithinMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, cellSel, radSel uint8) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(200)
		pts := mobility.UniformPoints(arena, n, rng)
		cell := []float64{25, 50, 125, 250, 500, 2000}[int(cellSel)%6]
		r := []float64{0, 10, 50, 250, 900, 1500}[int(radSel)%6]
		ix := MustIndex(arena, cell)
		ix.Build(pts)
		for trial := 0; trial < 10; trial++ {
			q := geom.Pt(rng.Uniform(-100, 1000), rng.Uniform(-100, 1000))
			got := within(ix, q, r)
			want := bruteWithin(pts, q, r, nil)
			if !reflect.DeepEqual(got, want) {
				t.Logf("mismatch: n=%d cell=%v r=%v q=%v got=%v want=%v", n, cell, r, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWithinUnsortedCellOrder pins the documented result order: cells in
// row-major order, ascending ids inside each cell.
func TestWithinUnsortedCellOrder(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		pts := mobility.UniformPoints(arena, 150, rng)
		ix := MustIndex(arena, 125)
		ix.Build(pts)
		got := ix.WithinUnsorted(geom.Pt(450, 450), 300, nil)
		for i := 1; i < len(got); i++ {
			a, b := ix.cellIndex(pts[got[i-1]]), ix.cellIndex(pts[got[i]])
			if a > b || (a == b && got[i-1] >= got[i]) {
				t.Logf("seed %d: ids %d (cell %d) then %d (cell %d)", seed, got[i-1], a, got[i], b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWithinAppendsToDst(t *testing.T) {
	ix := MustIndex(arena, 100)
	ix.Build([]geom.Point{geom.Pt(5, 5)})
	dst := []int{99}
	got := ix.WithinUnsorted(geom.Pt(5, 5), 1, dst)
	if !reflect.DeepEqual(got, []int{99, 0}) {
		t.Errorf("append semantics broken: %v", got)
	}
}

func TestRebuild(t *testing.T) {
	ix := MustIndex(arena, 100)
	ix.Build([]geom.Point{geom.Pt(5, 5), geom.Pt(800, 800)})
	if got := within(ix, geom.Pt(5, 5), 10); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("first build: %v", got)
	}
	// Move node 0 far away; rebuild must forget the old cell.
	ix.Build([]geom.Point{geom.Pt(800, 805), geom.Pt(800, 800)})
	if got := within(ix, geom.Pt(5, 5), 10); len(got) != 0 {
		t.Errorf("stale entries after rebuild: %v", got)
	}
	if got := within(ix, geom.Pt(800, 802), 10); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("rebuilt positions wrong: %v", got)
	}
	// A smaller rebuild forgets the dropped ids.
	ix.Build([]geom.Point{geom.Pt(800, 800)})
	if got := within(ix, geom.Pt(800, 802), 10); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("ids beyond the rebuilt count: %v", got)
	}
}

func TestPointsOutsideArenaStillIndexed(t *testing.T) {
	// Clamping to edge cells must not lose points that stray outside the
	// declared arena (defensive: mobility clamps, but the index should be
	// robust).
	ix := MustIndex(arena, 100)
	ix.Build([]geom.Point{geom.Pt(-50, -50), geom.Pt(950, 950)})
	if got := within(ix, geom.Pt(-50, -50), 1); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("outside-arena point lost: %v", got)
	}
	if got := within(ix, geom.Pt(950, 950), 1); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("outside-arena point lost: %v", got)
	}
}

// TestWithinClippedMatchesBruteForce: every point within r of the query
// that lies inside the clip is returned, once, and nothing farther than r
// is. Half the clips are the bounding box of a random subset of the
// points, so subset points sit exactly on the clip's edges.
func TestWithinClippedMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, cellSel, radSel uint8) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Uniform(-50, 950), rng.Uniform(-50, 950))
		}
		cell := []float64{25, 50, 125, 250, 500, 2000}[int(cellSel)%6]
		r := []float64{0, 10, 50, 250, 900, 1500}[int(radSel)%6]
		ix := MustIndex(arena, cell)
		ix.Build(pts)
		for trial := 0; trial < 10; trial++ {
			q := geom.Pt(rng.Uniform(-100, 1000), rng.Uniform(-100, 1000))
			clip := geom.NewRect(geom.Pt(rng.Uniform(-100, 1000), rng.Uniform(-100, 1000)),
				geom.Pt(rng.Uniform(-100, 1000), rng.Uniform(-100, 1000)))
			if trial%2 == 1 {
				clip = geom.Rect{Min: geom.Pt(math.Inf(1), math.Inf(1)), Max: geom.Pt(math.Inf(-1), math.Inf(-1))}
				for i, p := range pts {
					if i%3 == trial%3 {
						clip = clip.Extend(p)
					}
				}
			}
			got := ix.WithinClipped(q, r, clip, nil)
			seen := make(map[int]bool, len(got))
			for _, id := range got {
				if seen[id] || pts[id].Dist2(q) > r*r {
					t.Logf("n=%d cell=%v r=%v q=%v clip=%v: id %d duplicated or out of range", n, cell, r, q, clip, id)
					return false
				}
				seen[id] = true
			}
			for _, id := range bruteWithin(pts, q, r, nil) {
				if pts[id].In(clip) && !seen[id] {
					t.Logf("n=%d cell=%v r=%v q=%v clip=%v: missed id %d at %v", n, cell, r, q, clip, id, pts[id])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRebuildDoesNotAllocate: re-indexing the same number of points
// reuses the index's arrays.
func TestRebuildDoesNotAllocate(t *testing.T) {
	ix := MustIndex(arena, 125)
	pts := mobility.UniformPoints(arena, 300, xrand.New(3))
	ix.Build(pts)
	if allocs := testing.AllocsPerRun(50, func() { ix.Build(pts) }); allocs != 0 {
		t.Errorf("Build: %.1f allocs per rebuild, want 0", allocs)
	}
}

func BenchmarkWithinGrid(b *testing.B) {
	rng := xrand.New(1)
	pts := mobility.UniformPoints(arena, 100, rng)
	ix := MustIndex(arena, 125)
	ix.Build(pts)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.WithinUnsorted(pts[i%100], 250, buf[:0])
	}
}

func BenchmarkWithinBrute(b *testing.B) {
	rng := xrand.New(1)
	pts := mobility.UniformPoints(arena, 100, rng)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = bruteWithin(pts, pts[i%100], 250, buf[:0])
	}
}
