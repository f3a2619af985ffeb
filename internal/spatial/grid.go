// Package spatial provides a uniform grid index over the simulation arena
// for fast fixed-radius neighbor queries.
//
// The radio model asks "which nodes are within range r of point p right
// now?" once per transmission, and once per node at every metric sample.
// With n nodes spread over the arena, bucketing by a cell size on the order
// of the query radius makes each query expected O(k) in the number of
// results instead of O(n).
//
// Query results come in a fixed cell-scan order (row-major cells, ascending
// ids inside each cell), so they are deterministic but not sorted; callers
// that need ascending ids sort the set they keep after filtering.
package spatial

import (
	"fmt"
	"math"

	"mstc/internal/geom"
)

// Index is a uniform grid over an arena holding one point per node id.
// Build may be called repeatedly to re-index fresh positions; queries are
// read-only and safe to run concurrently with each other (but not with
// Build).
//
// The layout is a counting sort by cell: cell c holds ids[start[c]:start[c+1]],
// ascending inside the cell. Cells are row-major, so one row of adjacent
// cells is one contiguous run of ids, and rebuilding over the same number of
// points reuses both arrays without allocating.
type Index struct {
	arena geom.Rect
	cell  float64
	nx    int
	ny    int
	start []int32 // nx*ny+1 cell offsets into ids
	ids   []int32 // every indexed id, grouped by cell
	pts   []geom.Point
}

// maxCells bounds an index's cell count, so a cell size far below the
// arena's scale fails fast instead of allocating the offsets of billions
// of cells. At 4 B per cell it caps the offsets at 64 MiB.
const maxCells = 1 << 24

// NewIndex creates an index over the arena with the given cell size.
// A cell size near the typical query radius is a good default.
func NewIndex(arena geom.Rect, cell float64) (*Index, error) {
	if arena.Empty() {
		return nil, fmt.Errorf("spatial: empty arena")
	}
	if !(cell > 0) || math.IsInf(cell, 1) {
		return nil, fmt.Errorf("spatial: cell size must be positive and finite, got %g", cell)
	}
	fx, fy := math.Ceil(arena.Width()/cell)+1, math.Ceil(arena.Height()/cell)+1
	if !(fx*fy <= maxCells) {
		return nil, fmt.Errorf("spatial: cell size %g cuts the %gx%g arena into more than %d cells", cell, arena.Width(), arena.Height(), maxCells)
	}
	nx, ny := int(fx), int(fy)
	return &Index{
		arena: arena,
		cell:  cell,
		nx:    nx,
		ny:    ny,
		start: make([]int32, nx*ny+1),
	}, nil
}

// MustIndex is NewIndex that panics on error, for call sites with
// compile-time-constant arguments.
func MustIndex(arena geom.Rect, cell float64) *Index {
	ix, err := NewIndex(arena, cell)
	if err != nil {
		panic(err)
	}
	return ix
}

func (ix *Index) cellOf(p geom.Point) (cx, cy int) {
	return CellIndex((p.X-ix.arena.Min.X)/ix.cell, ix.nx), CellIndex((p.Y-ix.arena.Min.Y)/ix.cell, ix.ny)
}

// CellIndex returns ⌊f⌋ clamped to [0, n), for an offset f measured in
// cells. The clamp runs on the float, so an offset too large for an int
// (a query radius of 1e300 m) still lands on the edge cell, and NaN lands
// on cell 0.
func CellIndex(f float64, n int) int {
	if !(f >= 1) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// Build (re)indexes the given positions; the point at index i belongs to
// node id i. The slice is retained until the next Build, so callers must not
// mutate it while querying.
func (ix *Index) Build(points []geom.Point) {
	ix.pts = points
	if cap(ix.ids) < len(points) {
		ix.ids = make([]int32, len(points))
	}
	ix.ids = ix.ids[:len(points)]
	cells := len(ix.start) - 1
	for c := range ix.start {
		ix.start[c] = 0
	}
	// Count per cell, turn the counts into cell end offsets, then place ids
	// in descending order, decrementing each cell's offset down to its
	// start: every cell ends up ascending by id.
	for _, p := range points {
		ix.start[ix.cellIndex(p)]++
	}
	var end int32
	for c := 0; c < cells; c++ {
		end += ix.start[c]
		ix.start[c] = end
	}
	ix.start[cells] = end
	for id := len(points) - 1; id >= 0; id-- {
		c := ix.cellIndex(points[id])
		ix.start[c]--
		ix.ids[ix.start[c]] = int32(id)
	}
}

func (ix *Index) cellIndex(p geom.Point) int {
	cx, cy := ix.cellOf(p)
	return cy*ix.nx + cx
}

// WithinUnsorted appends to dst the ids of all indexed nodes within
// distance r of p (inclusive) and returns the extended slice. Ids come in
// cell-scan order (row-major cells, ascending ids inside each cell) — a
// fixed, deterministic order, just not globally ascending. Pass a non-nil
// dst to avoid allocation on hot paths.
func (ix *Index) WithinUnsorted(p geom.Point, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	cx0, cy0 := ix.cellOf(geom.Pt(p.X-r, p.Y-r))
	cx1, cy1 := ix.cellOf(geom.Pt(p.X+r, p.Y+r))
	return ix.scan(p, r, cx0, cy0, cx1, cy1, dst)
}

// CountWithin returns the number of indexed nodes within distance r of p
// (inclusive): len(WithinUnsorted(p, r, nil)), counted over the same cells
// with the same dist² ≤ r² test, without building the list.
//
//manet:noalloc
func (ix *Index) CountWithin(p geom.Point, r float64) int {
	if r < 0 {
		return 0
	}
	cx0, cy0 := ix.cellOf(geom.Pt(p.X-r, p.Y-r))
	cx1, cy1 := ix.cellOf(geom.Pt(p.X+r, p.Y+r))
	r2 := r * r
	k := 0
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * ix.nx
		for _, id := range ix.ids[ix.start[row+cx0]:ix.start[row+cx1+1]] {
			if ix.pts[id].Dist2(p) <= r2 {
				k++
			}
		}
	}
	return k
}

// WithinClipped is WithinUnsorted restricted to the cells that overlap
// clip: it appends every indexed id within distance r of p whose position
// lies inside clip, and may append ids from clip's edge cells that lie
// outside it, so callers that need exactly the clip must filter. The
// guarantee holds for any points inside clip, including ones outside the
// arena, because a point's cell is a monotone function of its coordinates.
// A caller whose points are partitioned into regions can therefore query
// each region clipped to its points' bounding box and scan every cell of a
// disc about once in total. An empty clip returns dst unchanged.
func (ix *Index) WithinClipped(p geom.Point, r float64, clip geom.Rect, dst []int) []int {
	if r < 0 || clip.Empty() {
		return dst
	}
	cx0, cy0 := ix.cellOf(geom.Pt(math.Max(p.X-r, clip.Min.X), math.Max(p.Y-r, clip.Min.Y)))
	cx1, cy1 := ix.cellOf(geom.Pt(math.Min(p.X+r, clip.Max.X), math.Min(p.Y+r, clip.Max.Y)))
	return ix.scan(p, r, cx0, cy0, cx1, cy1, dst)
}

// scan appends the ids within r of p from the cell box [cx0, cx1] ×
// [cy0, cy1], row by row, ascending by id inside each cell.
func (ix *Index) scan(p geom.Point, r float64, cx0, cy0, cx1, cy1 int, dst []int) []int {
	if cx0 > cx1 {
		return dst // a clip beside the disc: no cell in both
	}
	r2 := r * r
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * ix.nx
		for _, id := range ix.ids[ix.start[row+cx0]:ix.start[row+cx1+1]] {
			if ix.pts[id].Dist2(p) <= r2 {
				dst = append(dst, int(id))
			}
		}
	}
	return dst
}
