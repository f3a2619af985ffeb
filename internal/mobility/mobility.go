// Package mobility implements the random waypoint model the paper evaluates
// with (Camp, Boleng & Davies 2002; zero pause time in the paper's setup)
// and a static placement.
//
// A Model answers "where is node i at time t" analytically: trajectories are
// precomputed as piecewise-linear legs for a fixed time horizon, so the
// discrete-event simulator needs no periodic position-update events and can
// evaluate positions at arbitrary instants (Hello transmissions, packet
// receptions, metric samples). Precomputation also makes every model
// immutable after construction and therefore safe for concurrent readers.
package mobility

import (
	"fmt"
	"math"
	"sort"

	"mstc/internal/geom"
	"mstc/internal/xrand"
)

// Model reports node positions over time. Implementations are immutable and
// safe for concurrent use.
type Model interface {
	// N returns the number of nodes.
	N() int
	// Arena returns the region nodes move in.
	Arena() geom.Rect
	// PositionAt returns the position of node id at time t (seconds).
	// t is clamped to [0, Horizon].
	PositionAt(id int, t float64) geom.Point
	// MaxSpeed returns an upper bound on any node's instantaneous speed,
	// used to size buffer zones (Theorem 5 uses the maximal speed).
	MaxSpeed() float64
	// Horizon returns the duration (seconds) trajectories were generated
	// for.
	Horizon() float64
}

// leg is one linear segment of a trajectory: the node moves from From
// (at time T0) to To (at time T1) at constant speed, then the next leg
// begins. A pause is a leg with From == To.
type leg struct {
	t0, t1   float64
	from, to geom.Point
}

func (l leg) at(t float64) geom.Point {
	if l.t1 <= l.t0 {
		return l.from
	}
	f := (t - l.t0) / (l.t1 - l.t0)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return l.from.Lerp(l.to, f)
}

// track is a full per-node trajectory.
type track struct {
	legs []leg
}

func (tr *track) at(t float64) geom.Point {
	legs := tr.legs
	if len(legs) == 0 {
		return geom.Point{}
	}
	if t <= legs[0].t0 {
		return legs[0].from
	}
	last := legs[len(legs)-1]
	if t >= last.t1 {
		return last.to
	}
	// Binary search for the leg containing t.
	i := sort.Search(len(legs), func(i int) bool { return legs[i].t1 >= t })
	return legs[i].at(t)
}

// base carries the fields shared by all concrete models.
type base struct {
	arena    geom.Rect
	tracks   []track
	maxSpeed float64
	horizon  float64
}

func (b *base) N() int            { return len(b.tracks) }
func (b *base) Arena() geom.Rect  { return b.arena }
func (b *base) MaxSpeed() float64 { return b.maxSpeed }
func (b *base) Horizon() float64  { return b.horizon }

func (b *base) PositionAt(id int, t float64) geom.Point {
	// Trajectory generation may overshoot the horizon by part of a leg;
	// clamp so queries beyond the horizon freeze at the horizon position.
	if t < 0 {
		t = 0
	} else if t > b.horizon {
		t = b.horizon
	}
	return b.tracks[id].at(t)
}

// UniformPoints returns n points placed independently and uniformly in the
// arena.
func UniformPoints(arena geom.Rect, n int, rng *xrand.Source) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			rng.Uniform(arena.Min.X, arena.Max.X),
			rng.Uniform(arena.Min.Y, arena.Max.Y),
		)
	}
	return pts
}

// Static is a degenerate Model in which nodes never move. It is the
// reference substrate for validating the static-network guarantees
// (Theorem 1 with trivially consistent views).
type Static struct{ base }

// NewStatic builds a Static model from explicit positions.
func NewStatic(arena geom.Rect, positions []geom.Point, horizon float64) *Static {
	s := &Static{base{arena: arena, maxSpeed: 0, horizon: horizon}}
	s.tracks = make([]track, len(positions))
	for i, p := range positions {
		s.tracks[i] = track{legs: []leg{{t0: 0, t1: horizon, from: p, to: p}}}
	}
	return s
}

// NewStaticUniform builds a Static model with n uniformly placed nodes.
func NewStaticUniform(arena geom.Rect, n int, horizon float64, rng *xrand.Source) *Static {
	return NewStatic(arena, UniformPoints(arena, n, rng.Sub('s')), horizon)
}

// field is one named float parameter of a model configuration.
type field struct {
	name string
	v    float64
}

// checkFinite rejects a NaN or ±Inf among a configuration's float fields.
// Each Validate runs it first: their range checks compare with < and <=,
// which NaN passes, and an infinite horizon never finishes generating.
func checkFinite(fs ...field) error {
	for _, f := range fs {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("mobility: %s must be finite, got %g", f.name, f.v)
		}
	}
	return nil
}

// checkArena rejects an arena a mobility model cannot draw positions in:
// an empty one, or one with a NaN or infinite bound. Square(+Inf) is not
// empty, yet every waypoint drawn in it would be Uniform(0, +Inf).
func checkArena(arena geom.Rect) error {
	if arena.Empty() {
		return fmt.Errorf("mobility: empty arena")
	}
	return checkFinite(field{"arena Min.X", arena.Min.X}, field{"arena Min.Y", arena.Min.Y},
		field{"arena Max.X", arena.Max.X}, field{"arena Max.Y", arena.Max.Y})
}

// WaypointConfig parameterizes the random waypoint model.
type WaypointConfig struct {
	N        int     // number of nodes
	SpeedMin float64 // m/s, per-leg speed is uniform in [SpeedMin, SpeedMax]
	SpeedMax float64 // m/s
	Pause    float64 // seconds paused at each waypoint (0 in the paper)
	Horizon  float64 // trajectory duration, seconds
}

// Validate reports whether the configuration is usable.
func (c WaypointConfig) Validate() error {
	if err := checkFinite(field{"SpeedMin", c.SpeedMin}, field{"SpeedMax", c.SpeedMax},
		field{"Pause", c.Pause}, field{"Horizon", c.Horizon}); err != nil {
		return err
	}
	switch {
	case c.N <= 0:
		return fmt.Errorf("mobility: N must be positive, got %d", c.N)
	case c.SpeedMin < 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("mobility: need 0 <= SpeedMin <= SpeedMax, got [%g, %g]", c.SpeedMin, c.SpeedMax)
	case c.Pause < 0:
		return fmt.Errorf("mobility: Pause must be non-negative, got %g", c.Pause)
	case c.Horizon <= 0:
		return fmt.Errorf("mobility: Horizon must be positive, got %g", c.Horizon)
	}
	return nil
}

// SpeedAround returns the [min, max] speed interval centered on the given
// average speed: uniform in [avg/2, 3·avg/2], whose mean is avg and which
// avoids the near-zero speeds that make plain uniform-(0, 2·avg] waypoint
// runs degenerate (the well-known speed-decay pathology of the RWP model).
func SpeedAround(avg float64) (min, max float64) {
	return avg / 2, 3 * avg / 2
}

// SpeedSetdest returns the speed interval of the CMU/ns-2 "setdest"
// convention the paper's evaluation uses: uniform in (0, 2·avg], so the
// per-leg mean is avg and the maximal speed is twice the average (§5.2:
// "the relative speed between two neighbors is two times the maximal
// moving speed and four times the average moving speed"). Note the RWP
// time-weighting pathology: time-averaged speed is below avg because slow
// legs last longer. This is the faithful-reproduction setting.
func SpeedSetdest(avg float64) (min, max float64) {
	return 0, 2 * avg
}

// RandomWaypoint is the classic model: each node repeatedly picks a uniform
// destination in the arena and a uniform speed, travels there in a straight
// line, pauses, and repeats.
type RandomWaypoint struct {
	base
	cfg WaypointConfig
}

// legBudget bounds the trajectory legs one model generates over all its
// nodes. Paper-scale runs (100 nodes, 100 s, up to 160 m/s) need at most
// about 1,700 legs and the large-n benchmark (1000 nodes, 5 s) about 1,000;
// 100 stationary nodes (every leg a 1 s pause) reach the budget near a
// 10,000 s horizon. Without it a huge finite horizon, or one so large that
// t + dur == t, would append legs until memory runs out.
const legBudget = 1 << 20

// NewRandomWaypoint generates trajectories for the whole horizon. Node i's
// trajectory depends only on (rng substream, i), so adding nodes does not
// perturb existing ones. It fails when the trajectories would need more
// than legBudget legs in all.
func NewRandomWaypoint(arena geom.Rect, cfg WaypointConfig, rng *xrand.Source) (*RandomWaypoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkArena(arena); err != nil {
		return nil, err
	}
	m := &RandomWaypoint{
		base: base{arena: arena, maxSpeed: cfg.SpeedMax, horizon: cfg.Horizon},
		cfg:  cfg,
	}
	m.tracks = make([]track, cfg.N)
	budget := legBudget
	for i := range m.tracks {
		tr, ok := waypointTrack(arena, cfg, rng.Sub('w', uint64(i)), budget)
		if !ok {
			return nil, fmt.Errorf("mobility: %d nodes over a %g s horizon need more than %d trajectory legs", cfg.N, cfg.Horizon, legBudget)
		}
		m.tracks[i] = tr
		budget -= len(tr.legs)
	}
	return m, nil
}

// waypointTrack generates one node's trajectory; ok is false when it would
// need more than budget legs.
func waypointTrack(arena geom.Rect, cfg WaypointConfig, rng *xrand.Source, budget int) (tr track, ok bool) {
	pos := geom.Pt(
		rng.Uniform(arena.Min.X, arena.Max.X),
		rng.Uniform(arena.Min.Y, arena.Max.Y),
	)
	var legs []leg
	t := 0.0
	for t < cfg.Horizon {
		if len(legs) >= budget {
			return track{}, false
		}
		dst := geom.Pt(
			rng.Uniform(arena.Min.X, arena.Max.X),
			rng.Uniform(arena.Min.Y, arena.Max.Y),
		)
		speed := rng.Uniform(cfg.SpeedMin, cfg.SpeedMax)
		if speed <= 0 {
			// A zero-speed leg would never end; treat it as a pause of one
			// second so the trajectory still covers the horizon.
			legs = append(legs, leg{t0: t, t1: t + 1, from: pos, to: pos})
			t++
			continue
		}
		dur := pos.Dist(dst) / speed
		legs = append(legs, leg{t0: t, t1: t + dur, from: pos, to: dst})
		t += dur
		pos = dst
		if cfg.Pause > 0 && t < cfg.Horizon {
			legs = append(legs, leg{t0: t, t1: t + cfg.Pause, from: pos, to: pos})
			t += cfg.Pause
		}
	}
	// A pause leg may have taken the last iteration one past the budget.
	return track{legs: legs}, len(legs) <= budget
}
