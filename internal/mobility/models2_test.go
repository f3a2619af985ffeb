package mobility

import (
	"math"
	"reflect"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/xrand"
)

func TestRandomDirectionStaysInArenaAndContinuous(t *testing.T) {
	m, err := NewRandomDirection(arena, DirectionConfig{
		N: 20, SpeedMin: 10, SpeedMax: 30, Pause: 1, Horizon: 100,
	}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.05
	for id := 0; id < m.N(); id++ {
		prev := m.PositionAt(id, 0)
		for tt := dt; tt <= 100; tt += dt {
			cur := m.PositionAt(id, tt)
			if !cur.In(arena) {
				t.Fatalf("node %d at t=%v outside arena: %v", id, tt, cur)
			}
			if d := cur.Dist(prev); d > m.MaxSpeed()*dt*1.001+1e-9 {
				t.Fatalf("node %d jumped %v m in %v s", id, d, dt)
			}
			prev = cur
		}
	}
}

func TestRandomDirectionReachesBoundary(t *testing.T) {
	// Legs end on the arena boundary by construction: each node must
	// repeatedly touch a wall.
	m, err := NewRandomDirection(arena, DirectionConfig{
		N: 10, SpeedMin: 50, SpeedMax: 50, Horizon: 200,
	}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < m.N(); id++ {
		touched := false
		for tt := 0.0; tt <= 200; tt += 0.1 {
			p := m.PositionAt(id, tt)
			if p.X < arena.Min.X+1 || p.X > arena.Max.X-1 || p.Y < arena.Min.Y+1 || p.Y > arena.Max.Y-1 {
				touched = true
				break
			}
		}
		if !touched {
			t.Errorf("node %d never reached the boundary", id)
		}
	}
}

func TestRandomDirectionValidation(t *testing.T) {
	bad := []DirectionConfig{
		{N: 0, SpeedMin: 1, SpeedMax: 2, Horizon: 1},
		{N: 1, SpeedMin: 0, SpeedMax: 2, Horizon: 1}, // zero speed never reaches boundary
		{N: 1, SpeedMin: 3, SpeedMax: 2, Horizon: 1},
		{N: 1, SpeedMin: 1, SpeedMax: 2, Pause: -1, Horizon: 1},
		{N: 1, SpeedMin: 1, SpeedMax: 2, Horizon: 0},
	}
	for i, c := range bad {
		if _, err := NewRandomDirection(arena, c, xrand.New(1)); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestGaussMarkovStaysInArenaAndContinuous(t *testing.T) {
	m, err := NewGaussMarkov(arena, GaussMarkovConfig{
		N: 20, MeanSpeed: 15, SpeedSigma: 3, DirSigma: 0.3, Alpha: 0.85, Horizon: 100,
	}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.1
	for id := 0; id < m.N(); id++ {
		prev := m.PositionAt(id, 0)
		for tt := dt; tt <= 100; tt += dt {
			cur := m.PositionAt(id, tt)
			if !cur.In(arena) {
				t.Fatalf("node %d at t=%v outside arena: %v", id, tt, cur)
			}
			if d := cur.Dist(prev); d > m.MaxSpeed()*dt*1.01+1e-6 {
				t.Fatalf("node %d jumped %v m in %v s (max %v)", id, d, dt, m.MaxSpeed()*dt)
			}
			prev = cur
		}
	}
}

func TestGaussMarkovMeanSpeedNearTarget(t *testing.T) {
	const mean = 15.0
	m, err := NewGaussMarkov(arena, GaussMarkovConfig{
		N: 30, MeanSpeed: mean, SpeedSigma: 2, DirSigma: 0.2, Alpha: 0.8, Horizon: 100,
	}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	total, count := 0.0, 0
	for id := 0; id < m.N(); id++ {
		for tt := 0.0; tt < 99; tt++ {
			total += m.PositionAt(id, tt+1).Dist(m.PositionAt(id, tt))
			count++
		}
	}
	got := total / float64(count)
	// Reflection clamping biases displacement slightly below speed.
	if got < 0.6*mean || got > 1.2*mean {
		t.Errorf("mean displacement speed %.2f, want near %v", got, mean)
	}
}

func TestGaussMarkovAlphaOneCruisesStraight(t *testing.T) {
	// Alpha = 1 means full memory: constant speed and direction until the
	// first wall reflection.
	m, err := NewGaussMarkov(arena, GaussMarkovConfig{
		N: 5, MeanSpeed: 10, SpeedSigma: 5, DirSigma: 1, Alpha: 1, Horizon: 20,
	}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < m.N(); id++ {
		p0, p1, p2 := m.PositionAt(id, 0), m.PositionAt(id, 1), m.PositionAt(id, 2)
		step1, step2 := p1.Sub(p0), p2.Sub(p1)
		// Straight unless it reflected; detect reflection via speed.
		if math.Abs(step1.Len()-step2.Len()) > 1e-6 {
			continue
		}
		if step1.Len() == 0 {
			t.Errorf("node %d did not move", id)
			continue
		}
		cross := step1.Cross(step2)
		if math.Abs(cross) > 1e-6*step1.Len()*step2.Len() && step1.Dot(step2) > 0 {
			t.Errorf("node %d turned despite alpha=1", id)
		}
	}
}

func TestGaussMarkovValidation(t *testing.T) {
	bad := []GaussMarkovConfig{
		{N: 0, MeanSpeed: 1, Alpha: 0.5, Horizon: 1},
		{N: 1, MeanSpeed: 0, Alpha: 0.5, Horizon: 1},
		{N: 1, MeanSpeed: 1, SpeedSigma: -1, Alpha: 0.5, Horizon: 1},
		{N: 1, MeanSpeed: 1, Alpha: 1.5, Horizon: 1},
		{N: 1, MeanSpeed: 1, Alpha: -0.1, Horizon: 1},
		{N: 1, MeanSpeed: 1, Alpha: 0.5, Horizon: 0},
		{N: 1, MeanSpeed: 1, Alpha: 0.5, Step: -1, Horizon: 1},
	}
	for i, c := range bad {
		if _, err := NewGaussMarkov(arena, c, xrand.New(1)); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if _, err := NewGaussMarkov(geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(0, 0)},
		GaussMarkovConfig{N: 1, MeanSpeed: 1, Alpha: 0.5, Horizon: 1}, xrand.New(1)); err == nil {
		t.Error("empty arena accepted")
	}
}

func TestModelsDeterministic(t *testing.T) {
	mk := func(seed uint64) (geom.Point, geom.Point) {
		d, err := NewRandomDirection(arena, DirectionConfig{N: 3, SpeedMin: 5, SpeedMax: 15, Horizon: 30}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGaussMarkov(arena, GaussMarkovConfig{N: 3, MeanSpeed: 10, SpeedSigma: 2, DirSigma: 0.2, Alpha: 0.7, Horizon: 30}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return d.PositionAt(1, 17.3), g.PositionAt(2, 21.4)
	}
	d1, g1 := mk(9)
	d2, g2 := mk(9)
	if d1 != d2 || g1 != g2 {
		t.Error("models not deterministic under the same seed")
	}
	d3, g3 := mk(10)
	if d1 == d3 && g1 == g3 {
		t.Error("different seeds gave identical positions")
	}
}

// TestValidateRejectsNonFinite sets every float field of each model
// configuration to NaN, +Inf and -Inf in turn: Validate must refuse each
// one.
func TestValidateRejectsNonFinite(t *testing.T) {
	valid := []interface{ Validate() error }{
		WaypointConfig{N: 1, SpeedMin: 1, SpeedMax: 2, Horizon: 1},
		WalkConfig{N: 1, SpeedMin: 1, SpeedMax: 2, Epoch: 1, Horizon: 1},
		DirectionConfig{N: 1, SpeedMin: 1, SpeedMax: 2, Horizon: 1},
		GaussMarkovConfig{N: 1, MeanSpeed: 1, Alpha: 0.5, Step: 1, Horizon: 1},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Fatalf("%T: valid config rejected: %v", c, err)
		}
		typ := reflect.TypeOf(c)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() != reflect.Float64 {
				continue
			}
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				v := reflect.New(typ).Elem()
				v.Set(reflect.ValueOf(c))
				v.Field(i).SetFloat(bad)
				if err := v.Interface().(interface{ Validate() error }).Validate(); err == nil {
					t.Errorf("%T.%s = %v accepted", c, typ.Field(i).Name, bad)
				}
			}
		}
	}
}
