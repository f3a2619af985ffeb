package topology

import (
	"math"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/xrand"
)

// benchView builds one node's view at the paper's density: 100 nodes in a
// 900 m square, 250 m normal range (~24 neighbors).
func benchView() View {
	rng := xrand.New(9)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Uniform(0, 900), rng.Uniform(0, 900))
	}
	return viewOf(pts, 0, normalRange)
}

// denseBenchView is a crowded view: 100 nodes in a 540 m square with the
// observer at its center: 65 neighbors within the 250 m range. A search
// that cannot stop early costs up to the square of the view size, so this
// is where an exit rule's reach shows.
func denseBenchView() View {
	rng := xrand.New(9)
	pts := make([]geom.Point, 100)
	pts[0] = geom.Pt(270, 270)
	for i := 1; i < len(pts); i++ {
		pts[i] = geom.Pt(rng.Uniform(0, 540), rng.Uniform(0, 540))
	}
	return viewOf(pts, 0, normalRange)
}

// multiViewOf gives every node of v a k = 3 history: its position and
// two earlier ones up to 10 m away.
func multiViewOf(v View) MultiView {
	rng := xrand.New(10)
	hist := func(p geom.Point) []geom.Point {
		return []geom.Point{p,
			geom.Pt(p.X+rng.Uniform(-5, 5), p.Y+rng.Uniform(-5, 5)),
			geom.Pt(p.X+rng.Uniform(-10, 10), p.Y+rng.Uniform(-10, 10))}
	}
	mv := MultiView{Self: MultiNodeInfo{ID: v.Self.ID, Positions: hist(v.Self.Pos)}}
	for _, nb := range v.Neighbors {
		mv.Neighbors = append(mv.Neighbors, MultiNodeInfo{ID: nb.ID, Positions: hist(nb.Pos)})
	}
	return mv
}

// fastWeakView is one node's k = 3 weak view at 160 m/s with 1 s beacons:
// 100 nodes in a 900 m square, each on a straight leg at a uniform heading
// and a speed uniform in (0, 320] m/s (the random waypoint legs of that
// mean speed), each carrying the positions it advertised at t, t-1 s and
// t-2 s. The observer, node 0 at the center at t, lists every node it
// heard in that time: one within the 250 m range of it at some beacon. Its
// own entry holds, as a beaconing node's does, the position it just
// advertised and its current one: the same point. Wide
// histories and a view that counts every node heard lately make this the
// costliest regime for the weak kernels, and the one in which their pair
// scans most often stop at a pair beyond the range.
func fastWeakView() MultiView {
	rng := xrand.New(9)
	hist := func(p geom.Point) []geom.Point {
		speed, heading := rng.Uniform(0, 320), rng.Uniform(0, 2*math.Pi)
		dx, dy := speed*math.Cos(heading), speed*math.Sin(heading)
		return []geom.Point{p, geom.Pt(p.X-dx, p.Y-dy), geom.Pt(p.X-2*dx, p.Y-2*dy)}
	}
	self := hist(geom.Pt(450, 450))
	mv := MultiView{Self: MultiNodeInfo{ID: 0, Positions: []geom.Point{self[0], self[0]}}}
	for id := 1; id < 100; id++ {
		pos := hist(geom.Pt(rng.Uniform(0, 900), rng.Uniform(0, 900)))
		for i, p := range pos {
			if p.Dist(self[i]) <= normalRange {
				mv.Neighbors = append(mv.Neighbors, MultiNodeInfo{ID: id, Positions: pos})
				break
			}
		}
	}
	return mv
}

func benchSelect(b *testing.B, p Protocol) { benchSelectView(b, p, benchView()) }

func benchSelectView(b *testing.B, p Protocol, v View) {
	s := &Scratch{}
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = SelectInto(p, v, dst[:0], s)
	}
	if len(dst) == 0 {
		b.Fatal("selected nothing")
	}
}

func benchSelectWeak(b *testing.B, p WeakProtocol) {
	benchSelectWeakView(b, p, multiViewOf(benchView()))
}

func benchSelectWeakView(b *testing.B, p WeakProtocol, mv MultiView) {
	s := &Scratch{}
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = SelectWeakInto(p, mv, dst[:0], s)
	}
	if len(dst) == 0 {
		b.Fatal("selected nothing")
	}
}

func BenchmarkRNGSelect(b *testing.B)     { benchSelect(b, RNG{}) }
func BenchmarkGabrielSelect(b *testing.B) { benchSelect(b, Gabriel{}) }
func BenchmarkMSTSelect(b *testing.B)     { benchSelect(b, MST{Range: normalRange}) }
func BenchmarkSPTSelect(b *testing.B)     { benchSelect(b, SPT{Alpha: 2, Range: normalRange}) }
func BenchmarkSPT4Select(b *testing.B)    { benchSelect(b, SPT{Alpha: 4, Range: normalRange}) }
func BenchmarkYaoSelect(b *testing.B)     { benchSelect(b, Yao{K: 6}) }
func BenchmarkWeakRNGSelect(b *testing.B) { benchSelectWeak(b, WeakRNG{}) }
func BenchmarkWeakMSTSelect(b *testing.B) { benchSelectWeak(b, WeakMST{Range: normalRange}) }
func BenchmarkWeakSPTSelect(b *testing.B) { benchSelectWeak(b, WeakSPT{Alpha: 2, Range: normalRange}) }

// BenchmarkDenseSelect runs the kernels whose cost grows fastest with the
// view size on denseBenchView.
func BenchmarkDenseSelect(b *testing.B) {
	v := denseBenchView()
	for _, p := range []Protocol{
		RNG{},
		MST{Range: normalRange},
		SPT{Alpha: 2, Range: normalRange},
		SPT{Alpha: 4, Range: normalRange},
	} {
		b.Run(p.Name(), func(b *testing.B) { benchSelectView(b, p, v) })
	}
}

// BenchmarkDenseSelectWeak runs the weak kernels on denseBenchView with a
// k = 3 history per node.
func BenchmarkDenseSelectWeak(b *testing.B) {
	mv := multiViewOf(denseBenchView())
	for _, p := range []WeakProtocol{
		WeakRNG{},
		WeakMST{Range: normalRange},
		WeakSPT{Alpha: 2, Range: normalRange},
	} {
		b.Run(p.Name(), func(b *testing.B) { benchSelectWeakView(b, p, mv) })
	}
}

// BenchmarkFastSelectWeak runs the weak kernels on fastWeakView.
func BenchmarkFastSelectWeak(b *testing.B) {
	mv := fastWeakView()
	for _, p := range []WeakProtocol{
		WeakRNG{},
		WeakMST{Range: normalRange},
		WeakSPT{Alpha: 2, Range: normalRange},
	} {
		b.Run(p.Name(), func(b *testing.B) { benchSelectWeakView(b, p, mv) })
	}
}
