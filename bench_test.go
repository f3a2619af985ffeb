package mstc

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5), plus ablations over the design choices called out in
// DESIGN.md. Each bench runs a scaled-down version of the experiment
// (1 repetition, 5 simulated seconds) so `go test -bench=.` completes in
// minutes; pass -benchtime=1x and raise the scale constants for
// paper-fidelity numbers, or use cmd/paperfig, which defaults to the
// paper's 20 x 100 s configuration.
//
// Connectivity results are attached to the benchmark output as custom
// metrics (conn/ratio), so the shape of each figure is visible directly in
// the bench log.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mstc/internal/channel"
	"mstc/internal/experiment"
	"mstc/internal/geom"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/radio"
	"mstc/internal/route"
	"mstc/internal/snapshot"
	"mstc/internal/spatial"
	"mstc/internal/topology"
	"mstc/internal/traffic"
	"mstc/internal/xrand"
)

// benchScale keeps every figure bench short; cmd/paperfig runs full scale.
const (
	benchDuration = 5.0
	benchReps     = 1
)

func benchOptions() experiment.Options {
	o := experiment.DefaultOptions()
	o.Reps = benchReps
	o.Duration = benchDuration
	o.Speeds = []float64{1, 40, 160}
	o.Buffers = []float64{0, 10, 100}
	return o
}

// BenchmarkTable1 regenerates Table 1 (baseline transmission range and node
// degree).
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Table1(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 4 {
			b.Fatalf("table rows = %d", len(tab.Rows))
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (baseline connectivity vs speed).
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiment.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, fig.Series)
}

// BenchmarkFig7 regenerates Figure 7 (connectivity vs speed per buffer
// width, all four protocols).
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		figs, err := experiment.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 4 {
			b.Fatalf("figures = %d", len(figs))
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (range and physical degree vs buffer
// width).
func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	var fa experiment.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fa, _, err = experiment.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(fa.Series) > 0 {
		last := fa.Series[len(fa.Series)-1]
		b.ReportMetric(last.Y[len(last.Y)-1], "m_maxrange")
	}
}

// BenchmarkFig9 regenerates Figure 9 (view synchronization).
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		figs, err := experiment.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 4 {
			b.Fatalf("figures = %d", len(figs))
		}
	}
}

// BenchmarkFig10 regenerates Figure 10 (physical neighbors).
func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		figs, err := experiment.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 4 {
			b.Fatalf("figures = %d", len(figs))
		}
	}
}

func reportSeries(b *testing.B, series []experiment.Series) {
	for _, s := range series {
		if len(s.Y) > 0 {
			b.ReportMetric(s.Y[0], "conn_"+s.Name+"_lo")
			b.ReportMetric(s.Y[len(s.Y)-1], "conn_"+s.Name+"_hi")
		}
	}
}

// runOnce executes a single simulation for the ablation benches.
func runOnce(b *testing.B, speed float64, cfg manet.Config) manet.Result {
	b.Helper()
	lo, hi := mobility.SpeedSetdest(speed)
	model, err := mobility.NewRandomWaypoint(geom.Square(900), mobility.WaypointConfig{
		N: 100, SpeedMin: lo, SpeedMax: hi, Horizon: benchDuration,
	}, xrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	nw, err := manet.NewNetwork(model, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return nw.Run(benchDuration)
}

// BenchmarkSingleRun measures one full 100-node simulation (the unit of
// every experiment).
func BenchmarkSingleRun(b *testing.B) {
	b.ReportAllocs()
	var res manet.Result
	for i := 0; i < b.N; i++ {
		res = runOnce(b, 40, manet.Config{
			Protocol: topology.RNG{}, FloodRate: 10, Seed: uint64(i),
		})
	}
	b.ReportMetric(res.Connectivity, "conn/ratio")
}

// BenchmarkSingleRunParallel is BenchmarkSingleRun on the region-parallel
// engine (2x2 domains) across worker counts. Results are bit-identical to
// the serial engine; the sub-benchmarks expose the window/barrier overhead
// at 1 worker and the scaling headroom beyond it (only realizable with
// more than one CPU — see README's benchmark trajectory notes).
func BenchmarkSingleRunParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var res manet.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, 40, manet.Config{
					Protocol: topology.RNG{}, FloodRate: 10, Seed: uint64(i),
					Domains: 2, ParallelWorkers: workers,
				})
			}
			b.ReportMetric(res.Connectivity, "conn/ratio")
		})
	}
}

// BenchmarkSingleRunLarge scales the single run to 1 000 and 10 000 nodes
// at the paper's density (the arena side grows with sqrt(n), holding the
// ~24-neighbor degree of the 100-node/900 m baseline) on the region-parallel
// engine over 2x2 and 4x4 domain grids. This is the regime the engine
// exists for: per-window work dominates barrier overhead, so the grids
// separate. The 10k runs use a shorter horizon to keep the 1x smoke pass
// affordable; relative grid timings are what the bench tracks.
func BenchmarkSingleRunLarge(b *testing.B) {
	lo, hi := mobility.SpeedSetdest(40)
	for _, n := range []int{1000, 10000} {
		side := 900 * math.Sqrt(float64(n)/100)
		dur := benchDuration
		if n >= 10000 {
			dur = 1.5
		}
		model, err := mobility.NewRandomWaypoint(geom.Square(side), mobility.WaypointConfig{
			N: n, SpeedMin: lo, SpeedMax: hi, Horizon: dur,
		}, xrand.New(42))
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range []int{2, 4} {
			b.Run(fmt.Sprintf("n=%d/grid=%dx%d", n, g, g), func(b *testing.B) {
				b.ReportAllocs()
				var res manet.Result
				for i := 0; i < b.N; i++ {
					nw, err := manet.NewNetwork(model, manet.Config{
						Protocol: topology.RNG{}, FloodRate: 10, Seed: uint64(i),
						Domains: g, ParallelWorkers: runtime.GOMAXPROCS(0),
					})
					if err != nil {
						b.Fatal(err)
					}
					res = nw.Run(dur)
				}
				b.ReportMetric(res.Connectivity, "conn/ratio")
			})
		}
	}
}

// BenchmarkResolveAll measures the batched position resolution sweep that
// feeds every synchronization window: one flat pass over all nodes versus
// the equivalent scattered per-node queries.
func BenchmarkResolveAll(b *testing.B) {
	lo, hi := mobility.SpeedSetdest(40)
	model, err := mobility.NewRandomWaypoint(geom.Square(900), mobility.WaypointConfig{
		N: 100, SpeedMin: lo, SpeedMax: hi, Horizon: 100,
	}, xrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		cur := mobility.NewCursor(model)
		dst := make([]geom.Point, 0, model.N())
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
		cur := mobility.NewCursor(model)
		dst := make([]geom.Point, 0, model.N())
		t := 0.0
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for id := 0; id < model.N(); id++ {
				dst = append(dst, cur.PositionAt(id, t))
			}
			t += 0.25
			if t > 100 {
				t = 0
			}
		}
	})
}

// BenchmarkSingleRunFaulty is BenchmarkSingleRun over a non-ideal channel
// (bursty loss + delayed delivery + churn): the cost of the fault-injection
// path relative to the ideal one, with the same mobility and protocol.
func BenchmarkSingleRunFaulty(b *testing.B) {
	b.ReportAllocs()
	var res manet.Result
	for i := 0; i < b.N; i++ {
		res = runOnce(b, 40, manet.Config{
			Protocol: topology.RNG{}, FloodRate: 10, Seed: uint64(i),
			Channel: channel.Config{
				Loss:  channel.LossConfig{Model: channel.GilbertElliott, Rate: 0.2},
				Delay: channel.DelayConfig{Max: 0.05},
				Churn: channel.ChurnConfig{MeanUp: 20, MeanDown: 2},
			},
		})
	}
	b.ReportMetric(res.Connectivity, "conn/ratio")
}

// BenchmarkAblationBufferWidth sweeps the buffer width finer than the
// paper's {1, 10, 100} to locate the knee of the connectivity/power
// trade-off.
func BenchmarkAblationBufferWidth(b *testing.B) {
	b.ReportAllocs()
	for _, buf := range []float64{0, 1, 3, 10, 30, 100} {
		b.Run(fmt.Sprintf("buf=%gm", buf), func(b *testing.B) {
			b.ReportAllocs()
			var res manet.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, 40, manet.Config{
					Protocol: topology.RNG{}, FloodRate: 10, Seed: uint64(i),
					Mech: manet.Mechanisms{Buffer: buf, ViewSync: true},
				})
			}
			b.ReportMetric(res.Connectivity, "conn/ratio")
			b.ReportMetric(res.AvgTxRange, "m/range")
		})
	}
}

// BenchmarkAblationWeakK sweeps the number of stored "Hello" versions for
// weak-consistency selection (Theorem 3 says 2–3 suffice).
func BenchmarkAblationWeakK(b *testing.B) {
	b.ReportAllocs()
	for _, k := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var res manet.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, 20, manet.Config{
					Weak: topology.WeakRNG{}, FloodRate: 10, Seed: uint64(i),
					Mech: manet.Mechanisms{WeakK: k, Buffer: 10},
				})
			}
			b.ReportMetric(res.Connectivity, "conn/ratio")
			b.ReportMetric(res.AvgLogicalDegree, "deg/logical")
		})
	}
}

// BenchmarkAblationHelloInterval sweeps the beaconing rate: shorter
// intervals cannot fix inconsistency (§3.2) but do reduce staleness.
func BenchmarkAblationHelloInterval(b *testing.B) {
	b.ReportAllocs()
	for _, iv := range []float64{0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("interval=%gs", iv), func(b *testing.B) {
			b.ReportAllocs()
			var res manet.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, 40, manet.Config{
					Protocol: topology.RNG{}, FloodRate: 10, Seed: uint64(i),
					HelloMin: iv * 0.75, HelloMax: iv * 1.25,
					HelloExpiry: 2.5 * iv,
					Mech:        manet.Mechanisms{Buffer: 10},
				})
			}
			b.ReportMetric(res.Connectivity, "conn/ratio")
		})
	}
}

// BenchmarkAblationCollisionMAC compares the ideal MAC against the
// collision model at increasing airtimes (the paper's future-work
// realism knob).
func BenchmarkAblationCollisionMAC(b *testing.B) {
	b.ReportAllocs()
	for _, txDur := range []float64{0, 0.0005, 0.001, 0.005} {
		b.Run(fmt.Sprintf("airtime=%gs", txDur), func(b *testing.B) {
			b.ReportAllocs()
			var res manet.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, 20, manet.Config{
					Protocol: topology.RNG{}, FloodRate: 10, Seed: uint64(i),
					Mech:  manet.Mechanisms{Buffer: 10, ViewSync: true},
					Radio: radio.Config{TxDuration: txDur},
				})
			}
			b.ReportMetric(res.Connectivity, "conn/ratio")
		})
	}
}

// BenchmarkAblationSelfPruning measures the forwarding-overhead reduction
// of neighborhood-aware self-pruning at two densities.
func BenchmarkAblationSelfPruning(b *testing.B) {
	b.ReportAllocs()
	for _, prune := range []bool{false, true} {
		b.Run(fmt.Sprintf("prune=%v", prune), func(b *testing.B) {
			b.ReportAllocs()
			var res manet.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, 1, manet.Config{
					Protocol: topology.None{}, FloodRate: 10, Seed: uint64(i),
					Mech: manet.Mechanisms{SelfPruning: prune},
				})
			}
			b.ReportMetric(float64(res.DataTx), "tx/run")
			b.ReportMetric(res.Connectivity, "conn/ratio")
		})
	}
}

// BenchmarkGeoRouting measures greedy and GFG routing over a Gabriel
// topology snapshot.
func BenchmarkGeoRouting(b *testing.B) {
	b.ReportAllocs()
	pts := mobility.UniformPoints(geom.Square(900), 100, xrand.New(1))
	sel := snapshot.Selections(pts, topology.Gabriel{}, 250)
	lg := snapshot.Logical(pts, sel)
	adj := make([][]int, len(pts))
	for u := range adj {
		for _, h := range lg.Neighbors(u) {
			adj[u] = append(adj[u], h.To)
		}
	}
	r, err := route.New(pts, adj)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Greedy(i%100, (i*37+13)%100)
		}
	})
	b.Run("gfg", func(b *testing.B) {
		b.ReportAllocs()
		delivered := 0
		for i := 0; i < b.N; i++ {
			if _, ok := r.GFG(i%100, (i*37+13)%100); ok {
				delivered++
			}
		}
		b.ReportMetric(float64(delivered)/float64(b.N), "delivered/ratio")
	})
}

// BenchmarkTrafficRun measures a full routed-traffic run (internal/traffic
// over the controlled topology) per mode: AODV pays discovery floods on
// demand, OLSR a periodic TC budget. Delivery ratio rides along as a
// custom metric so workload drift is visible next to the timing.
func BenchmarkTrafficRun(b *testing.B) {
	for _, mode := range []traffic.Mode{traffic.AODV, traffic.OLSR} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var res manet.Result
			for i := 0; i < b.N; i++ {
				cfg := manet.Config{
					Protocol: topology.RNG{}, Seed: uint64(i),
					Mech: manet.Mechanisms{Buffer: 10, ViewSync: true},
				}
				cfg.Traffic = traffic.Config{Mode: mode, Flows: 8, Rate: 2}
				res = runOnce(b, 20, cfg)
			}
			b.ReportMetric(res.Traffic.DeliveryRatio, "pdr/ratio")
		})
	}
}

// BenchmarkAblationGridCell measures the spatial index's cell-size
// trade-off on the radio's hot query.
func BenchmarkAblationGridCell(b *testing.B) {
	b.ReportAllocs()
	pts := mobility.UniformPoints(geom.Square(900), 100, xrand.New(1))
	for _, cell := range []float64{25, 50, 125, 250, 500} {
		b.Run(fmt.Sprintf("cell=%gm", cell), func(b *testing.B) {
			b.ReportAllocs()
			ix := spatial.MustIndex(geom.Square(900), cell)
			ix.Build(pts)
			buf := make([]int, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ix.WithinUnsorted(pts[i%100], 250, buf[:0])
			}
		})
	}
}

// BenchmarkSweepWorkers measures how a protocol-by-speed Sweep scales with
// the worker-pool size, from sequential up to GOMAXPROCS (doubling in
// between). Tasks are handed out through a buffered channel, so the curve
// exposes scheduler hand-off overhead rather than channel-capacity stalls.
func BenchmarkSweepWorkers(b *testing.B) {
	o := benchOptions()
	o.Reps = 2
	protocols := []string{"RNG", "MST", "SPT-2"}
	speeds := []float64{1, 160}
	maxW := runtime.GOMAXPROCS(0)
	workers := []int{1}
	for w := 2; w < maxW; w *= 2 {
		workers = append(workers, w)
	}
	if maxW > 1 {
		workers = append(workers, maxW)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			o := o
			o.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Sweep(o, protocols, speeds, []manet.Mechanisms{{}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelRuns compares sequential and parallel execution of the
// same 8-run sweep (the experiment package's worker pool).
func BenchmarkParallelRuns(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	o.Reps = 4
	tasks := make([]experiment.Run, 0, 8)
	for rep := 0; rep < 4; rep++ {
		tasks = append(tasks,
			experiment.Run{Protocol: "RNG", Speed: 40, Rep: rep},
			experiment.Run{Protocol: "MST", Speed: 40, Rep: rep})
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			o := o
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Execute(o, tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
