package mobility

import (
	"mstc/internal/geom"
)

// trackSource is implemented by every model built in this package (via the
// embedded base). It exposes the piecewise-linear legs to Cursor's monotone
// scan; models from other packages (e.g. replayed traces) fall back to the
// plain PositionAt of the Model interface.
type trackSource interface {
	trackOf(id int) *track
}

func (b *base) trackOf(id int) *track { return &b.tracks[id] }

// Cursor accelerates position queries whose times are (mostly)
// nondecreasing per node — the access pattern of a discrete-event
// simulation, where the radio medium evaluates positions in event order.
// It remembers the last trajectory leg used per node and resumes the scan
// there, so a monotone query sequence costs O(1) amortized per query
// instead of the O(log legs) binary search of Model.PositionAt. Backward
// jumps (a query earlier than the cursor) first probe the adjacent earlier
// leg — a smooth reverse sweep is O(1) per query too — and only fall back
// to a binary search over the prefix on a genuine long jump, so results are
// correct for any query order. Every path, including the boundary
// shortcuts, re-anchors the per-node leg index, so the next query resumes
// from where the last one landed instead of re-searching from a stale
// position.
//
// Results are bit-for-bit identical to Model.PositionAt: both resolve a
// query to the first leg whose end time is >= t and interpolate inside that
// leg, so no float operation differs between the two paths.
//
// The Model stays immutable (and therefore safe for concurrent readers);
// all mutable scan state lives in the Cursor, which is owned by a single
// caller — one Cursor per radio.Medium, like the Medium itself
// single-goroutine. Create additional cursors for additional readers.
type Cursor struct {
	model   Model
	src     trackSource // nil when the model does not expose legs
	horizon float64
	idx     []int // per-node index of the last leg used

	// backSearches counts backward jumps that needed a full prefix binary
	// search (the adjacent-leg probe missed). Exposed to the package's
	// regression test: a smooth reverse sweep must not accumulate these.
	backSearches int
}

// NewCursor returns a cursor over the model. Models from other packages
// (without precomputed legs) are supported transparently via their own
// PositionAt.
func NewCursor(m Model) *Cursor {
	c := &Cursor{model: m, horizon: m.Horizon()}
	if ts, ok := m.(trackSource); ok {
		c.src = ts
		c.idx = make([]int, m.N())
	}
	return c
}

// PositionAt returns node id's position at time t, clamped to [0, Horizon]
// exactly like Model.PositionAt.
//
//manet:noalloc
func (c *Cursor) PositionAt(id int, t float64) geom.Point {
	if c.src == nil {
		return c.model.PositionAt(id, t)
	}
	if t < 0 {
		t = 0
	} else if t > c.horizon {
		t = c.horizon
	}
	return c.resolve(id, t)
}

// ResolveAllInto appends every node's position at instant t to dst and
// returns the extended slice. It is the batched form of PositionAt: one
// pass over the per-node leg cursors in id order, so resolving a whole
// instant (domain assignment, grid rebuilds, metric sweeps) is a single
// cache-friendly sweep instead of n scattered queries. Results are
// bit-identical to n individual PositionAt calls and the per-node cursors
// advance exactly as they would have.
//
//manet:noalloc
func (c *Cursor) ResolveAllInto(dst []geom.Point, t float64) []geom.Point {
	n := c.model.N()
	if c.src == nil {
		for id := 0; id < n; id++ {
			dst = append(dst, c.model.PositionAt(id, t))
		}
		return dst
	}
	if t < 0 {
		t = 0
	} else if t > c.horizon {
		t = c.horizon
	}
	for id := 0; id < n; id++ {
		dst = append(dst, c.resolve(id, t))
	}
	return dst
}

// resolve returns node id's position at the already-clamped instant t and
// re-anchors the node's leg index at the leg that answered.
func (c *Cursor) resolve(id int, t float64) geom.Point {
	legs := c.src.trackOf(id).legs
	if len(legs) == 0 {
		return geom.Point{}
	}
	if t <= legs[0].t0 {
		c.idx[id] = 0
		return legs[0].from
	}
	if last := legs[len(legs)-1]; t >= last.t1 {
		c.idx[id] = len(legs) - 1
		return last.to
	}
	// The correct leg is the first one with t1 >= t — the same choice
	// track.at's binary search makes, which keeps interpolation
	// bit-identical at leg boundaries.
	i := c.idx[id]
	if i >= len(legs) {
		i = len(legs) - 1
	}
	if i > 0 && legs[i-1].t1 >= t {
		// Backward jump: the answer lies in [0, i). Probe the adjacent
		// earlier leg first — the common case of a reverse sweep — and
		// binary-search the prefix only on a long jump.
		if i == 1 || legs[i-2].t1 < t {
			i--
		} else {
			c.backSearches++
			lo, hi := 0, i
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if legs[mid].t1 >= t {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			i = lo
		}
	} else {
		for legs[i].t1 < t {
			i++
		}
	}
	c.idx[id] = i
	return legs[i].at(t)
}
