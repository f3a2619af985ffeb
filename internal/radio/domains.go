package radio

// Spatial domain decomposition for the region-parallel engine. The arena is
// cut into a g×g grid of rectangular domains; every node belongs to the
// domain containing its position at the start of a synchronization window,
// and a transmission is visible to a domain when the disc of radius
// r + guard around the sender's exact position intersects the domain's
// rectangle. The guard absorbs the only approximation in the scheme — a
// receiver is located where it was at window start, not where it is at the
// transmission instant — by the same bounded-displacement argument as the
// medium's staleness grid (and the paper's buffer zone, Theorem 5): within
// a window of length W every node drifts at most vmax·W from its assignment
// position, so with W = guard/(2·vmax) the drift is at most guard/2 and a
// disc of radius r + guard over window-start positions covers every true
// receiver. The bound is deliberately the conservative 2·vmax·W form the
// paper uses for relative motion, double what the one-sided drift needs.

import (
	"fmt"
	"math"

	"mstc/internal/geom"
	"mstc/internal/spatial"
)

// DomainGrid is the g×g decomposition of an arena into spatial domains.
// It is immutable after construction and therefore safe to share across
// worker goroutines.
type DomainGrid struct {
	arena  geom.Rect
	g      int
	cw, ch float64 // domain cell width/height
}

// NewDomainGrid decomposes the arena into side×side domains.
func NewDomainGrid(arena geom.Rect, side int) (*DomainGrid, error) {
	if side < 1 {
		return nil, fmt.Errorf("radio: domain grid side %d < 1", side)
	}
	if arena.Empty() || arena.Width() <= 0 || arena.Height() <= 0 {
		return nil, fmt.Errorf("radio: domain grid over degenerate arena %v", arena)
	}
	return &DomainGrid{
		arena: arena,
		g:     side,
		cw:    arena.Width() / float64(side),
		ch:    arena.Height() / float64(side),
	}, nil
}

// Side returns the grid side (domains per axis).
func (dg *DomainGrid) Side() int { return dg.g }

// Domains returns the total domain count, Side².
func (dg *DomainGrid) Domains() int { return dg.g * dg.g }

// Guard returns the guard distance of the decomposition: half the smaller
// domain-cell extent. It is the halo margin added to every transmission
// radius and the displacement budget that fixes the synchronization window.
func (dg *DomainGrid) Guard() float64 {
	return math.Min(dg.cw, dg.ch) / 2
}

// Window returns the conservative synchronization-window length for the
// given maximum node speed: guard/(2·vmax), the horizon within which
// window-start domain assignments plus the guard halo provably cover every
// receiver (see the file comment). A static scenario (vmax <= 0) has an
// unbounded window.
func (dg *DomainGrid) Window(vmax float64) float64 {
	if vmax <= 0 {
		return math.Inf(1)
	}
	return dg.Guard() / (2 * vmax)
}

// domainAt returns the domain index of position p, clamping out-of-arena
// positions to the boundary domains.
func (dg *DomainGrid) domainAt(p geom.Point) int {
	ix := spatial.CellIndex((p.X-dg.arena.Min.X)/dg.cw, dg.g)
	iy := spatial.CellIndex((p.Y-dg.arena.Min.Y)/dg.ch, dg.g)
	return iy*dg.g + ix
}

// AssignInto appends the domain index of every position in pos to dst and
// returns the extended slice — the window-start ownership assignment of
// the region-parallel engine.
//
//manet:noalloc
func (dg *DomainGrid) AssignInto(pos []geom.Point, dst []int) []int {
	for _, p := range pos {
		dst = append(dst, dg.domainAt(p))
	}
	return dst
}

// HaloBounds returns the inclusive domain-index bounding box [ix0, ix1] ×
// [iy0, iy1] of the disc of radius r around p: every domain whose
// rectangle intersects the disc lies inside the box. The box is a
// conservative superset (corner domains of the box may miss the disc);
// over-delivery is harmless — a domain that receives a transmission it has
// no receivers for does no work beyond one receiver query that finds none.
func (dg *DomainGrid) HaloBounds(p geom.Point, r float64) (ix0, iy0, ix1, iy1 int) {
	ix0 = spatial.CellIndex((p.X-r-dg.arena.Min.X)/dg.cw, dg.g)
	ix1 = spatial.CellIndex((p.X+r-dg.arena.Min.X)/dg.cw, dg.g)
	iy0 = spatial.CellIndex((p.Y-r-dg.arena.Min.Y)/dg.ch, dg.g)
	iy1 = spatial.CellIndex((p.Y+r-dg.arena.Min.Y)/dg.ch, dg.g)
	return ix0, iy0, ix1, iy1
}
