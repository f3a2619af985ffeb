package mobility

import (
	"math"
	"strings"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/xrand"
)

var arena = geom.Square(900)

func TestUniformPointsInArena(t *testing.T) {
	rng := xrand.New(1)
	pts := UniformPoints(arena, 1000, rng)
	if len(pts) != 1000 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !p.In(arena) {
			t.Fatalf("point %v outside arena", p)
		}
	}
	// Coverage sanity: mean should be near the center.
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	if math.Abs(sx/1000-450) > 30 || math.Abs(sy/1000-450) > 30 {
		t.Errorf("mean (%v, %v) far from center", sx/1000, sy/1000)
	}
}

func TestStaticNeverMoves(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4)}
	m := NewStatic(arena, pts, 100)
	if m.N() != 2 || m.MaxSpeed() != 0 || m.Horizon() != 100 {
		t.Fatalf("metadata wrong: N=%d MaxSpeed=%v Horizon=%v", m.N(), m.MaxSpeed(), m.Horizon())
	}
	for _, tt := range []float64{-1, 0, 50, 100, 1000} {
		if got := m.PositionAt(0, tt); got != pts[0] {
			t.Errorf("node 0 at t=%v: %v, want %v", tt, got, pts[0])
		}
		if got := m.PositionAt(1, tt); got != pts[1] {
			t.Errorf("node 1 at t=%v: %v, want %v", tt, got, pts[1])
		}
	}
}

func TestStaticUniform(t *testing.T) {
	m := NewStaticUniform(arena, 50, 10, xrand.New(7))
	if m.N() != 50 {
		t.Fatalf("N = %d", m.N())
	}
	for i := 0; i < 50; i++ {
		if !m.PositionAt(i, 5).In(arena) {
			t.Fatalf("node %d outside arena", i)
		}
	}
}

func defaultWaypoint(t *testing.T, avgSpeed float64, seed uint64) *RandomWaypoint {
	t.Helper()
	lo, hi := SpeedAround(avgSpeed)
	m, err := NewRandomWaypoint(arena, WaypointConfig{
		N: 40, SpeedMin: lo, SpeedMax: hi, Pause: 0, Horizon: 100,
	}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWaypointStaysInArena(t *testing.T) {
	m := defaultWaypoint(t, 20, 3)
	for id := 0; id < m.N(); id++ {
		for tt := 0.0; tt <= 100; tt += 0.5 {
			if !m.PositionAt(id, tt).In(arena) {
				t.Fatalf("node %d at t=%v outside arena: %v", id, tt, m.PositionAt(id, tt))
			}
		}
	}
}

func TestWaypointContinuity(t *testing.T) {
	// Position must be continuous: over dt the node moves at most
	// MaxSpeed*dt (plus epsilon).
	m := defaultWaypoint(t, 40, 4)
	const dt = 0.01
	for id := 0; id < m.N(); id++ {
		prev := m.PositionAt(id, 0)
		for tt := dt; tt <= 100; tt += dt {
			cur := m.PositionAt(id, tt)
			if d := cur.Dist(prev); d > m.MaxSpeed()*dt*1.0001+1e-9 {
				t.Fatalf("node %d jumped %v m in %v s at t=%v (max %v)", id, d, dt, tt, m.MaxSpeed()*dt)
			}
			prev = cur
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	// Instantaneous speed (finite difference over a fine step inside a
	// leg) never exceeds SpeedMax.
	m := defaultWaypoint(t, 160, 5)
	const dt = 0.001
	for id := 0; id < 5; id++ {
		for tt := 0.0; tt < 99; tt += 0.37 {
			d := m.PositionAt(id, tt+dt).Dist(m.PositionAt(id, tt))
			if d/dt > m.MaxSpeed()*1.001 {
				t.Fatalf("node %d speed %v at t=%v exceeds max %v", id, d/dt, tt, m.MaxSpeed())
			}
		}
	}
}

func TestWaypointAverageSpeedNearTarget(t *testing.T) {
	// With SpeedAround(avg) and zero pause, long-run mean speed should be
	// within ~20% of avg (RWP biases toward slower legs lasting longer,
	// but the [avg/2, 3avg/2] interval keeps the bias modest).
	const avg = 20.0
	m := defaultWaypoint(t, avg, 6)
	const dt = 0.1
	total := 0.0
	samples := 0
	for id := 0; id < m.N(); id++ {
		for tt := 0.0; tt < 100-dt; tt += dt {
			total += m.PositionAt(id, tt+dt).Dist(m.PositionAt(id, tt)) / dt
			samples++
		}
	}
	mean := total / float64(samples)
	if mean < 0.7*avg || mean > 1.3*avg {
		t.Errorf("mean speed %v, want within 30%% of %v", mean, avg)
	}
}

func TestWaypointDeterminism(t *testing.T) {
	a := defaultWaypoint(t, 20, 42)
	b := defaultWaypoint(t, 20, 42)
	for id := 0; id < a.N(); id++ {
		for tt := 0.0; tt <= 100; tt += 7.3 {
			if a.PositionAt(id, tt) != b.PositionAt(id, tt) {
				t.Fatalf("same seed diverged: node %d t=%v", id, tt)
			}
		}
	}
}

// TestWaypointSeedsDiffer guards against the Sub-derivation regression:
// different seeds must yield different trajectories.
func TestWaypointSeedsDiffer(t *testing.T) {
	a := defaultWaypoint(t, 20, 1)
	b := defaultWaypoint(t, 20, 2)
	if a.PositionAt(0, 0) == b.PositionAt(0, 0) && a.PositionAt(1, 10) == b.PositionAt(1, 10) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestWaypointNodeIndependence(t *testing.T) {
	// Adding nodes must not change existing trajectories (per-node
	// substreams).
	lo, hi := SpeedAround(20)
	small, err := NewRandomWaypoint(arena, WaypointConfig{N: 5, SpeedMin: lo, SpeedMax: hi, Horizon: 50}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRandomWaypoint(arena, WaypointConfig{N: 50, SpeedMin: lo, SpeedMax: hi, Horizon: 50}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 5; id++ {
		for tt := 0.0; tt <= 50; tt += 3.1 {
			if small.PositionAt(id, tt) != big.PositionAt(id, tt) {
				t.Fatalf("trajectory of node %d changed when N grew", id)
			}
		}
	}
}

func TestWaypointPause(t *testing.T) {
	m, err := NewRandomWaypoint(arena, WaypointConfig{
		N: 10, SpeedMin: 10, SpeedMax: 10, Pause: 5, Horizon: 200,
	}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// With pauses, there must exist sample instants where a node is
	// motionless.
	still := 0
	for id := 0; id < m.N(); id++ {
		for tt := 0.0; tt < 199; tt += 0.5 {
			if m.PositionAt(id, tt) == m.PositionAt(id, tt+0.4) {
				still++
			}
		}
	}
	if still == 0 {
		t.Error("no pause intervals observed despite Pause=5")
	}
}

func TestWaypointClampOutsideHorizon(t *testing.T) {
	m := defaultWaypoint(t, 20, 12)
	end := m.PositionAt(0, 100)
	if got := m.PositionAt(0, 1e9); got != end {
		t.Errorf("beyond horizon: %v, want frozen at %v", got, end)
	}
	start := m.PositionAt(0, 0)
	if got := m.PositionAt(0, -5); got != start {
		t.Errorf("before start: %v, want %v", got, start)
	}
}

func TestWaypointConfigValidation(t *testing.T) {
	bad := []WaypointConfig{
		{N: 0, SpeedMin: 1, SpeedMax: 2, Horizon: 1},
		{N: 1, SpeedMin: -1, SpeedMax: 2, Horizon: 1},
		{N: 1, SpeedMin: 3, SpeedMax: 2, Horizon: 1},
		{N: 1, SpeedMin: 1, SpeedMax: 2, Pause: -1, Horizon: 1},
		{N: 1, SpeedMin: 1, SpeedMax: 2, Horizon: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
		if _, err := NewRandomWaypoint(arena, c, xrand.New(1)); err == nil {
			t.Errorf("case %d: NewRandomWaypoint accepted bad config", i)
		}
	}
	if _, err := NewRandomWaypoint(geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(0, 0)},
		WaypointConfig{N: 1, SpeedMin: 1, SpeedMax: 2, Horizon: 1}, xrand.New(1)); err == nil {
		t.Error("empty arena accepted")
	}
}

// TestConstructorsRejectBadArena runs the waypoint constructor on arenas no
// position can be drawn in. geom.Square(+Inf) is not Empty, so an emptiness
// test alone lets it through to Uniform(0, +Inf) waypoints.
func TestConstructorsRejectBadArena(t *testing.T) {
	build := func(a geom.Rect) error {
		_, err := NewRandomWaypoint(a, WaypointConfig{N: 1, SpeedMin: 1, SpeedMax: 2, Horizon: 1}, xrand.New(1))
		return err
	}
	inf, nan := math.Inf(1), math.NaN()
	arenas := []struct {
		name  string
		arena geom.Rect
	}{
		{"empty", geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(0, 0)}},
		{"square +Inf", geom.Square(inf)},
		{"square NaN", geom.Square(nan)},
		{"-Inf corner", geom.Rect{Min: geom.Pt(-inf, 0), Max: geom.Pt(900, 900)}},
		{"+Inf height", geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(900, inf)}},
	}
	if err := build(arena); err != nil {
		t.Fatalf("valid arena rejected: %v", err)
	}
	for _, a := range arenas {
		if build(a.arena) == nil {
			t.Errorf("accepted the %s arena %+v", a.name, a.arena)
		}
	}
}

// TestValidateRejectsNonFinite sets each float field of a valid waypoint
// configuration to NaN and ±Inf in turn; Validate must reject every one.
func TestValidateRejectsNonFinite(t *testing.T) {
	valid := WaypointConfig{N: 1, SpeedMin: 1, SpeedMax: 2, Horizon: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	fields := []struct {
		name string
		f    func(*WaypointConfig) *float64
	}{
		{"SpeedMin", func(c *WaypointConfig) *float64 { return &c.SpeedMin }},
		{"SpeedMax", func(c *WaypointConfig) *float64 { return &c.SpeedMax }},
		{"Pause", func(c *WaypointConfig) *float64 { return &c.Pause }},
		{"Horizon", func(c *WaypointConfig) *float64 { return &c.Horizon }},
	}
	for _, fd := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := valid
			*fd.f(&c) = bad
			if err := c.Validate(); err == nil {
				t.Errorf("%s = %v accepted", fd.name, bad)
			}
		}
	}
}

// TestLegBudgetFailsFast builds waypoint models whose horizons need more
// legs than legBudget: two stationary nodes (1 s legs) one second past half
// the budget each, and a horizon so large that a leg's duration no longer
// advances the clock. Each must return the budget error instead of growing
// trajectories without bound, while two stationary nodes that need exactly
// legBudget legs still build.
func TestLegBudgetFailsFast(t *testing.T) {
	for _, c := range []WaypointConfig{
		{N: 2, Horizon: legBudget/2 + 1},
		{N: 1, SpeedMin: 0, SpeedMax: 10, Horizon: 1e300},
		{N: 3, SpeedMin: 5, SpeedMax: 10, Pause: 1, Horizon: 1e300},
	} {
		_, err := NewRandomWaypoint(arena, c, xrand.New(1))
		if err == nil || !strings.Contains(err.Error(), "trajectory legs") {
			t.Errorf("%+v: error %v, want the leg-budget error", c, err)
		}
	}
	c := WaypointConfig{N: 2, Horizon: legBudget / 2}
	if _, err := NewRandomWaypoint(arena, c, xrand.New(1)); err != nil {
		t.Errorf("%+v: %v", c, err)
	}
}

func TestSpeedAround(t *testing.T) {
	lo, hi := SpeedAround(40)
	if lo != 20 || hi != 60 {
		t.Errorf("SpeedAround(40) = [%v, %v], want [20, 60]", lo, hi)
	}
	if (lo+hi)/2 != 40 {
		t.Error("midpoint must equal the average")
	}
}

func TestZeroSpeedWaypointDoesNotHang(t *testing.T) {
	m, err := NewRandomWaypoint(arena, WaypointConfig{
		N: 3, SpeedMin: 0, SpeedMax: 0, Horizon: 10,
	}, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	p0 := m.PositionAt(0, 0)
	if got := m.PositionAt(0, 10); got != p0 {
		t.Errorf("zero-speed node moved from %v to %v", p0, got)
	}
}

func BenchmarkWaypointPositionAt(b *testing.B) {
	lo, hi := SpeedAround(20)
	m, err := NewRandomWaypoint(arena, WaypointConfig{N: 100, SpeedMin: lo, SpeedMax: hi, Horizon: 100}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink geom.Point
	for i := 0; i < b.N; i++ {
		sink = m.PositionAt(i%100, float64(i%1000)/10)
	}
	_ = sink
}

// BenchmarkResolveAll measures the batched position resolution sweep that
// feeds every synchronization window: one flat pass over all nodes versus
// the equivalent scattered per-node queries.
func BenchmarkResolveAll(b *testing.B) {
	lo, hi := SpeedSetdest(40)
	m, err := NewRandomWaypoint(arena, WaypointConfig{N: 100, SpeedMin: lo, SpeedMax: hi, Horizon: 100}, xrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		cur := NewCursor(m)
		dst := make([]geom.Point, 0, m.N())
		t := 0.0
		for i := 0; i < b.N; i++ {
			dst = cur.ResolveAllInto(dst[:0], t)
			t += 0.25
			if t > 100 {
				t = 0
			}
		}
	})
	b.Run("scattered", func(b *testing.B) {
		b.ReportAllocs()
		cur := NewCursor(m)
		dst := make([]geom.Point, 0, m.N())
		t := 0.0
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for id := 0; id < m.N(); id++ {
				dst = append(dst, cur.PositionAt(id, t))
			}
			t += 0.25
			if t > 100 {
				t = 0
			}
		}
	})
}
