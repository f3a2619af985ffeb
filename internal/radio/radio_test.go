package radio

import (
	"math"
	"reflect"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

var arena = geom.Square(900)

func staticMedium(t *testing.T, pts []geom.Point, cfg Config) *Medium {
	t.Helper()
	m, err := NewMedium(mobility.NewStatic(arena, pts, 100), cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReceiversWithinRange(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(100, 100), geom.Pt(150, 100), geom.Pt(400, 100), geom.Pt(100, 140),
	}
	m := staticMedium(t, pts, Config{})
	got := m.ReceiversAt(0, 0, 60, nil)
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("Receivers = %v, want [1 3]", got)
	}
	// Exactly-on-boundary is received.
	got = m.ReceiversAt(0, 0, 50, nil)
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("boundary Receivers = %v, want [1 3]", got)
	}
	// Zero or negative range: nobody.
	if got := m.ReceiversAt(0, 0, 0, nil); len(got) != 0 {
		t.Errorf("zero range receivers = %v", got)
	}
}

// TestTransmitWithoutChannelIsReceiversAt: with no channel attached a
// transmission reaches exactly the receiver query's set and appends after
// whatever dst already holds.
func TestTransmitWithoutChannelIsReceiversAt(t *testing.T) {
	lo, hi := mobility.SpeedAround(20)
	model, err := mobility.NewRandomWaypoint(arena, mobility.WaypointConfig{
		N: 40, SpeedMin: lo, SpeedMax: hi, Horizon: 20,
	}, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(model, Config{}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		at, sender := float64(i)*0.37, i%40
		want := m.ReceiversAt(at, sender, 250, []int{-1})
		got := m.Transmit(at, sender, 250, []int{-1})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("t=%g sender %d: Transmit = %v, ReceiversAt = %v", at, sender, got, want)
		}
	}
}

func TestReceiversExcludeSender(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 1)}
	m := staticMedium(t, pts, Config{})
	got := m.ReceiversAt(0, 1, 500, nil)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Receivers = %v, want [0]", got)
	}
}

func TestReceiversTrackMobility(t *testing.T) {
	// Node 1 moves away from node 0 over time.
	lo, hi := mobility.SpeedAround(20)
	model, err := mobility.NewRandomWaypoint(arena, mobility.WaypointConfig{
		N: 30, SpeedMin: lo, SpeedMax: hi, Horizon: 100,
	}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMedium(model, Config{}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 17.3, 50, 99} {
		got := m.ReceiversAt(tt, 0, 250, nil)
		// Differential check against direct distance computation.
		var want []int
		p0 := model.PositionAt(0, tt)
		for id := 1; id < model.N(); id++ {
			if model.PositionAt(id, tt).Dist(p0) <= 250 {
				want = append(want, id)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("t=%v: receivers %v, want %v", tt, got, want)
		}
	}
}

func TestPositionAt(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}
	m := staticMedium(t, pts, Config{})
	for _, at := range []float64{5, 5, 3} { // a repeated instant is served by the memo
		for id, want := range pts {
			if got := m.PositionAt(id, at); got != want {
				t.Errorf("PositionAt(%d, %v) = %v, want %v", id, at, got, want)
			}
		}
	}
}

// TestConfigValidation: the zero configuration and a nil source build a
// medium over any arena the grid can cover, and an arena too large for the
// 125 m grid is refused.
func TestConfigValidation(t *testing.T) {
	model := mobility.NewStatic(arena, []geom.Point{geom.Pt(1, 1)}, 10)
	m, err := NewMedium(model, Config{}, nil)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if m.N() != 1 {
		t.Errorf("N = %d", m.N())
	}
	huge := geom.Square(1e12)
	if _, err := NewMedium(mobility.NewStatic(huge, []geom.Point{geom.Pt(1, 1)}, 10), Config{}, nil); err == nil {
		t.Error("a grid of (1e12/125)² cells accepted")
	}
}

func BenchmarkReceiversAt(b *testing.B) {
	pts := mobility.UniformPoints(arena, 100, xrand.New(1))
	model := mobility.NewStatic(arena, pts, 1e9)
	m, err := NewMedium(model, Config{}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct times defeat the cache: worst case.
		buf = m.ReceiversAt(float64(i), i%100, 250, buf[:0])
	}
}

// BenchmarkReceiversAtMoving is BenchmarkReceiversAt's query over a moving
// scene: random waypoint at up to 40 m/s, each run of 100 queries spread over
// the 0.1 s after a grid rebuild, so candidates near the disc's edge pay
// exact-position lookups as they do in a simulation. (A static scene has no
// displacement, which lets every candidate inside r skip its lookup.)
func BenchmarkReceiversAtMoving(b *testing.B) {
	const n, horizon = 100, 1000.0
	m, err := NewMedium(newWaypointModel(b, n, 40, horizon, 1), Config{}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every 100 queries the base instant moves 2 s on, past the 125 m
		// slack at 40 m/s, so the first query of each run rebuilds the grid.
		base := math.Mod(float64(i/100)*2, horizon)
		buf = m.ReceiversAt(base+float64(i%100)*0.001, i%n, 250, buf[:0])
	}
}

// BenchmarkDegreesAt is BenchmarkReceiversAt's scene asked the way a metric
// sample asks it: every node's degree at one instant, a new instant per
// iteration. ns/node compares with BenchmarkReceiversAt's ns/op; each
// degree is a count-only grid scan.
func BenchmarkDegreesAt(b *testing.B) {
	const n = 100
	pts := mobility.UniformPoints(arena, n, xrand.New(1))
	m, err := NewMedium(mobility.NewStatic(arena, pts, 1e9), Config{}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	ranges := make([]float64, n)
	for i := range ranges {
		ranges[i] = 250
	}
	deg := make([]int, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deg = m.DegreesAt(float64(i), ranges, deg[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
}
