package mobility

import (
	"fmt"
	"math"

	"mstc/internal/geom"
	"mstc/internal/xrand"
)

// Additional mobility models from the survey the paper's evaluation cites
// (Camp, Boleng & Davies 2002): random direction and Gauss–Markov. They
// plug into every experiment through the same Model interface, enabling
// sensitivity studies beyond the random waypoint results of §5.

// DirectionConfig parameterizes the random direction model: each node picks
// a uniform direction, travels to the arena boundary, pauses, and repeats.
// Compared to random waypoint it avoids the center-density bias.
type DirectionConfig struct {
	N        int
	SpeedMin float64
	SpeedMax float64
	Pause    float64
	Horizon  float64
}

// Validate reports whether the configuration is usable.
func (c DirectionConfig) Validate() error {
	if err := checkFinite(field{"SpeedMin", c.SpeedMin}, field{"SpeedMax", c.SpeedMax},
		field{"Pause", c.Pause}, field{"Horizon", c.Horizon}); err != nil {
		return err
	}
	switch {
	case c.N <= 0:
		return fmt.Errorf("mobility: N must be positive, got %d", c.N)
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("mobility: need 0 < SpeedMin <= SpeedMax, got [%g, %g]", c.SpeedMin, c.SpeedMax)
	case c.Pause < 0:
		return fmt.Errorf("mobility: Pause must be non-negative, got %g", c.Pause)
	case c.Horizon <= 0:
		return fmt.Errorf("mobility: Horizon must be positive, got %g", c.Horizon)
	}
	return nil
}

// RandomDirection implements the random direction model.
type RandomDirection struct {
	base
	cfg DirectionConfig
}

// NewRandomDirection generates random-direction trajectories.
func NewRandomDirection(arena geom.Rect, cfg DirectionConfig, rng *xrand.Source) (*RandomDirection, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkArena(arena); err != nil {
		return nil, err
	}
	m := &RandomDirection{
		base: base{arena: arena, maxSpeed: cfg.SpeedMax, horizon: cfg.Horizon},
		cfg:  cfg,
	}
	m.tracks = make([]track, cfg.N)
	for i := range m.tracks {
		m.tracks[i] = directionTrack(arena, cfg, rng.Sub('d', uint64(i)))
	}
	return m, nil
}

func directionTrack(arena geom.Rect, cfg DirectionConfig, rng *xrand.Source) track {
	pos := geom.Pt(
		rng.Uniform(arena.Min.X, arena.Max.X),
		rng.Uniform(arena.Min.Y, arena.Max.Y),
	)
	var legs []leg
	t := 0.0
	for t < cfg.Horizon {
		dir := rng.Uniform(0, 2*math.Pi)
		speed := rng.Uniform(cfg.SpeedMin, cfg.SpeedMax)
		v := geom.Polar(speed, dir)
		// Travel until the boundary: time to each wall along v.
		hitT := math.Inf(1)
		if v.DX > 0 {
			hitT = math.Min(hitT, (arena.Max.X-pos.X)/v.DX)
		} else if v.DX < 0 {
			hitT = math.Min(hitT, (arena.Min.X-pos.X)/v.DX)
		}
		if v.DY > 0 {
			hitT = math.Min(hitT, (arena.Max.Y-pos.Y)/v.DY)
		} else if v.DY < 0 {
			hitT = math.Min(hitT, (arena.Min.Y-pos.Y)/v.DY)
		}
		if math.IsInf(hitT, 1) || hitT <= 0 {
			// Already on the boundary moving outward along one axis only,
			// or degenerate direction: re-draw after a token pause.
			legs = append(legs, leg{t0: t, t1: t + 0.1, from: pos, to: pos})
			t += 0.1
			continue
		}
		next := arena.Clamp(pos.Add(v.Scale(hitT)))
		legs = append(legs, leg{t0: t, t1: t + hitT, from: pos, to: next})
		t += hitT
		pos = next
		if cfg.Pause > 0 && t < cfg.Horizon {
			legs = append(legs, leg{t0: t, t1: t + cfg.Pause, from: pos, to: pos})
			t += cfg.Pause
		}
	}
	return track{legs: legs}
}

// GaussMarkovConfig parameterizes the Gauss–Markov model: speed and
// direction evolve as first-order autoregressive processes with memory
// Alpha, producing smooth trajectories without the sharp turns of waypoint
// models.
type GaussMarkovConfig struct {
	N int
	// MeanSpeed is the asymptotic mean speed (m/s).
	MeanSpeed float64
	// SpeedSigma is the per-step speed noise std-dev (m/s).
	SpeedSigma float64
	// DirSigma is the per-step direction noise std-dev (radians).
	DirSigma float64
	// Alpha in [0, 1] is the memory parameter: 1 = straight-line cruise,
	// 0 = memoryless Brownian-like motion.
	Alpha float64
	// Step is the update period in seconds (default 1).
	Step    float64
	Horizon float64
}

// Validate reports whether the configuration is usable.
func (c GaussMarkovConfig) Validate() error {
	if err := checkFinite(field{"MeanSpeed", c.MeanSpeed}, field{"SpeedSigma", c.SpeedSigma},
		field{"DirSigma", c.DirSigma}, field{"Alpha", c.Alpha}, field{"Step", c.Step},
		field{"Horizon", c.Horizon}); err != nil {
		return err
	}
	switch {
	case c.N <= 0:
		return fmt.Errorf("mobility: N must be positive, got %d", c.N)
	case c.MeanSpeed <= 0:
		return fmt.Errorf("mobility: MeanSpeed must be positive, got %g", c.MeanSpeed)
	case c.SpeedSigma < 0 || c.DirSigma < 0:
		return fmt.Errorf("mobility: negative sigma")
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("mobility: Alpha must be in [0, 1], got %g", c.Alpha)
	case c.Step < 0:
		return fmt.Errorf("mobility: negative Step %g", c.Step)
	case c.Horizon <= 0:
		return fmt.Errorf("mobility: Horizon must be positive, got %g", c.Horizon)
	}
	return nil
}

// GaussMarkov implements the Gauss–Markov mobility model with boundary
// reflection.
type GaussMarkov struct {
	base
	cfg GaussMarkovConfig
}

// NewGaussMarkov generates Gauss–Markov trajectories.
func NewGaussMarkov(arena geom.Rect, cfg GaussMarkovConfig, rng *xrand.Source) (*GaussMarkov, error) {
	if cfg.Step == 0 { //lint:ignore float-eq zero value is the unset sentinel, exact by construction
		cfg.Step = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkArena(arena); err != nil {
		return nil, err
	}
	maxSpeed := cfg.MeanSpeed + 4*cfg.SpeedSigma/math.Max(1e-9, math.Sqrt(1-cfg.Alpha*cfg.Alpha+1e-12))
	if cfg.Alpha == 1 || cfg.SpeedSigma == 0 { //lint:ignore float-eq exact sentinel values select the degenerate constant-speed regime
		maxSpeed = cfg.MeanSpeed
	}
	m := &GaussMarkov{
		base: base{arena: arena, maxSpeed: maxSpeed, horizon: cfg.Horizon},
		cfg:  cfg,
	}
	m.tracks = make([]track, cfg.N)
	for i := range m.tracks {
		m.tracks[i] = gaussMarkovTrack(arena, cfg, maxSpeed, rng.Sub('g', uint64(i)))
	}
	return m, nil
}

func gaussMarkovTrack(arena geom.Rect, cfg GaussMarkovConfig, maxSpeed float64, rng *xrand.Source) track {
	pos := geom.Pt(
		rng.Uniform(arena.Min.X, arena.Max.X),
		rng.Uniform(arena.Min.Y, arena.Max.Y),
	)
	speed := cfg.MeanSpeed
	dir := rng.Uniform(0, 2*math.Pi)
	meanDir := dir
	var legs []leg
	t := 0.0
	a := cfg.Alpha
	rootOneMinusA2 := math.Sqrt(math.Max(0, 1-a*a))
	for t < cfg.Horizon {
		// AR(1) updates (Liang & Haas / Camp et al. formulation).
		speed = a*speed + (1-a)*cfg.MeanSpeed + rootOneMinusA2*cfg.SpeedSigma*rng.NormFloat64()
		if speed < 0 {
			speed = 0
		}
		if speed > maxSpeed {
			speed = maxSpeed
		}
		dir = a*dir + (1-a)*meanDir + rootOneMinusA2*cfg.DirSigma*rng.NormFloat64()
		next := pos.Add(geom.Polar(speed*cfg.Step, dir))
		// Reflect off walls: mirror the coordinate and the direction.
		if next.X < arena.Min.X || next.X > arena.Max.X {
			dir = math.Pi - dir
			meanDir = math.Pi - meanDir
			next = pos.Add(geom.Polar(speed*cfg.Step, dir))
		}
		if next.Y < arena.Min.Y || next.Y > arena.Max.Y {
			dir = -dir
			meanDir = -meanDir
			next = pos.Add(geom.Polar(speed*cfg.Step, dir))
		}
		next = arena.Clamp(next)
		legs = append(legs, leg{t0: t, t1: t + cfg.Step, from: pos, to: next})
		pos = next
		t += cfg.Step
	}
	return track{legs: legs}
}
