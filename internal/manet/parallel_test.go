package manet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mstc/internal/channel"
	"mstc/internal/geom"
	"mstc/internal/hello"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/traffic"
	"mstc/internal/xrand"
)

// Differential proof of the region-parallel engine: for every supported
// configuration, every domain grid, and every worker count, the parallel
// engine must produce bit-identical results to the serial engine — the
// digest covers the aggregate Result and the final per-node logical
// neighbor sets and transmission ranges. `make check` runs this under the
// race detector, so the same matrix also proves the barrier publishes all
// cross-domain state correctly.

// parWaypoint builds a fresh random-waypoint model for the matrix runs.
func parWaypoint(tb testing.TB, n int, avgSpeed, horizon float64, seed uint64) mobility.Model {
	tb.Helper()
	lo, hi := mobility.SpeedSetdest(avgSpeed)
	m, err := mobility.NewRandomWaypoint(arena, mobility.WaypointConfig{
		N: n, SpeedMin: lo, SpeedMax: hi, Horizon: horizon,
	}, xrand.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// runDigest executes one run and hashes everything observable about it.
func runDigest(tb testing.TB, model mobility.Model, cfg Config, dur float64) string {
	tb.Helper()
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res := nw.Run(dur)
	// Vacuity guard matched to the configured probe workload: traffic and
	// unicast runs flood nothing by construction.
	if cfg.Traffic.Enabled() {
		if res.HelloTx == 0 || res.Traffic.Sent == 0 {
			tb.Fatalf("degenerate run: hellos=%d traffic sent=%d", res.HelloTx, res.Traffic.Sent)
		}
	} else if res.HelloTx == 0 || (cfg.FloodRate > 0 && res.Floods == 0) ||
		(cfg.Unicast.Enabled() && res.Unicast.Probes == 0) {
		tb.Fatalf("degenerate run: hellos=%d floods=%d probes=%d", res.HelloTx, res.Floods, res.Unicast.Probes)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%#v\n", res)
	for id := 0; id < model.N(); id++ {
		fmt.Fprintf(h, "%d|%v|%g|%g\n",
			id, nw.LogicalNeighbors(id), nw.TxRange(id), nw.ActualRange(id))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridWorker is one (domain side, worker count) cell of the matrix.
type gridWorker struct{ side, workers int }

// gridWorkers is the (domain side, worker count) matrix: single-domain
// degenerate grids, square grids with fewer/equal/more workers than cores,
// and a deliberately odd worker count that does not divide the domain count.
var gridWorkers = []gridWorker{
	{1, 1}, {1, 2},
	{2, 1}, {2, 2}, {2, 4}, {2, 7},
	{4, 1}, {4, 4}, {4, 7},
}

func TestParallelMatchesSerialMatrix(t *testing.T) {
	const (
		n     = 60
		dur   = 8.0
		speed = 20.0
	)
	variants := []struct {
		name   string
		cfg    Config
		matrix []gridWorker // nil: the full gridWorkers matrix
	}{
		{
			name: "ideal",
			cfg: Config{
				Protocol: topology.RNG{}, FloodRate: 5,
				SnapshotEvery: 2.5, Seed: 7,
			},
		},
		{
			name: "faulty",
			cfg: func() Config {
				c := Config{
					Protocol: topology.SPT{Alpha: 2, Range: 250}, FloodRate: 5,
					PosNoise: 5, Seed: 11,
				}
				c.Channel.Loss = channel.LossConfig{Rate: 0.3}
				return c
			}(),
		},
		{
			name: "mechanisms",
			cfg: Config{
				Protocol: topology.RNG{}, FloodRate: 5,
				Mech: Mechanisms{Buffer: 10, ViewSync: true, PhysicalNeighbors: true, Proactive: true},
				Seed: 13,
			},
			matrix: []gridWorker{{2, 2}, {4, 7}},
		},
		{
			// Non-ideal channel delay: every reception defers by its own
			// bounded random delay, so the parallel engine must drain the
			// per-domain delivery heaps (including re-homing pending items
			// across ownership snapshots) bit-identically to the serial
			// actor schedule.
			name: "delayed",
			cfg: func() Config {
				c := Config{
					Protocol: topology.RNG{}, FloodRate: 5, Seed: 19,
				}
				c.Channel.Delay = channel.DelayConfig{Min: 0.01, Max: 0.4}
				return c
			}(),
		},
		{
			// I.i.d. channel loss chains: the filter must resolve
			// identically inside the domain scans and the serial receiver
			// loops.
			name: "lossy",
			cfg: func() Config {
				c := Config{
					Protocol: topology.SPT{Alpha: 2, Range: 250}, FloodRate: 5,
					Mech: Mechanisms{Buffer: 10, ViewSync: true}, Seed: 23,
				}
				c.Channel.Loss = channel.LossConfig{Rate: 0.1}
				return c
			}(),
		},
		{
			// Reactive strong-consistency rounds on the ideal channel:
			// synchronized beacons plus settle passes a fixed offset later.
			name: "reactive",
			cfg: Config{
				Protocol: topology.RNG{}, FloodRate: 5,
				Mech: Mechanisms{Reactive: true, Buffer: 10}, Seed: 29,
			},
		},
		{
			// Reactive rounds on a faulty channel: receptions are lost or
			// defer through the delivery heaps, and the settle passes must
			// still read each round's advertisements.
			// The delay bound deliberately STRADDLES the 0.05 s settle
			// offset: part of each round's deliveries must land after its
			// settle pass, so a parallel drain that runs ahead of a
			// freshly appended settle (or a dispatch that fires two rounds
			// before the first one's settle) diverges here. Delays capped
			// below the offset once masked exactly that bug.
			name: "reactive-faulty",
			cfg: func() Config {
				c := Config{
					Protocol: topology.RNG{}, FloodRate: 5,
					Mech: Mechanisms{Reactive: true}, Seed: 31,
				}
				c.Channel.Delay = channel.DelayConfig{Min: 0.01, Max: 0.15}
				c.Channel.Loss = channel.LossConfig{Rate: 0.2}
				return c
			}(),
		},
		{
			// Weak consistency end to end. The first engine fence sits at
			// 2·HelloMax = 2.5 s while hello intervals are ≈1 s and every
			// grid's synchronization window exceeds that gap, so nodes
			// beacon 2-4 times inside the opening window — the regime where
			// dispatch has overwritten advertisedPos before the barrier
			// replays earlier beacons. The digest only observes each
			// window's final selection (later beacons overwrite earlier
			// ones before any fence reads them), so the per-beacon
			// advertised-position contract the barrier relies on is pinned
			// separately by TestSelectWeakUsesCallerSelfPos.
			name: "weak",
			cfg: Config{
				Weak: topology.WeakRNG{}, FloodRate: 5,
				Mech: Mechanisms{WeakK: 3},
				Seed: 17,
			},
		},
		{
			// Maximal staleness: no floods and metric samples 5 s apart
			// leave the only engine fences at 2.5 s and 7.5 s, so windows
			// run to the full guard/(2·vmax) on the 2×2 and 4×4 grids (and
			// to the fence on 1×1). Beacons late in a window are scanned
			// with the largest query-radius inflation the snapshot grid
			// must absorb; an inflation too small loses receivers here.
			name: "max-staleness",
			cfg: Config{
				Protocol: topology.RNG{}, SampleRate: 0.2, Seed: 37,
			},
			matrix: []gridWorker{{1, 1}, {2, 2}, {4, 4}},
		},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			model := parWaypoint(t, n, speed, dur, 40+v.cfg.Seed)
			want := runDigest(t, model, v.cfg, dur)
			matrix := v.matrix
			if matrix == nil {
				matrix = gridWorkers
			}
			for _, gw := range matrix {
				cfg := v.cfg
				cfg.Domains = gw.side
				cfg.ParallelWorkers = gw.workers
				if nw, err := NewNetwork(model, cfg); err != nil {
					t.Fatal(err)
				} else if !nw.parallelEligible() {
					t.Fatalf("variant %s must take the parallel path", v.name)
				}
				if got := runDigest(t, model, cfg, dur); got != want {
					t.Errorf("%dx%d domains, %d workers: digest %s != serial %s",
						gw.side, gw.side, gw.workers, got[:16], want[:16])
				}
			}
		})
	}
}

// TestReceiverScanMatchesOwnedScan compares the region-parallel receiver
// scan, served from the snapshot grid, with the owned-node scan it
// replaced: for every sender and every domain, the grid scan must return
// exactly the owned nodes (other than the sender) within range at the
// query instant. Queries run at 0, W/2 and W after the snapshot — W is the
// synchronization window, the largest staleness a scan sees — and each
// grid must have lost receivers to an uninflated query, so an inflation
// that is too small fails here.
func TestReceiverScanMatchesOwnedScan(t *testing.T) {
	const dur = 12.0
	model := parWaypoint(t, 80, 20, dur, 53)
	r := 250.0
	for _, side := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dx%d", side, side), func(t *testing.T) {
			nw, err := NewNetwork(model, Config{Protocol: topology.RNG{}, Domains: side, ParallelWorkers: 1, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			pr := nw.newParRun()
			defer pr.close()
			W := math.Min(pr.window, 4)
			stale, total := 0, 0
			for _, t0 := range []float64{0.5, 3.25, 7} {
				pr.snapshot(t0)
				for _, at := range []float64{t0, t0 + W/2, t0 + W} {
					for s := 0; s < model.N(); s++ {
						pos := model.PositionAt(s, at)
						for d := range pr.doms {
							var want []int
							for _, v := range pr.owned[d] {
								if v != s && model.PositionAt(v, at).Dist2(pos) <= r*r {
									want = append(want, v)
									if pr.posT[v].Dist2(pos) > r*r {
										stale++
									}
								}
							}
							got := append([]int(nil), pr.receivers(&pr.doms[d], d, s, pos, at, r)...)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("snapshot %g, query %g, sender %d, domain %d: grid scan %v, owned scan %v",
									t0, at, s, d, got, want)
							}
							total += len(want)
						}
					}
				}
			}
			if total == 0 || stale == 0 {
				t.Fatalf("vacuous: %d receivers, %d outside r at their snapshot positions", total, stale)
			}
		})
	}
}

// radialScene keeps node 0 at the arena's center and moves every other node
// straight toward or away from it at vmax, so a node's position at the
// snapshot and at the query instant are exactly vmax·|at−snapAt| apart. At
// the snapshot the nodes sit on both sides of the inner disc's edge
// r − disp − ε and of r (see radio's TestReceiversAtInnerDiscBoundary).
type radialScene struct {
	vmax, t0      float64
	dist, dir, th []float64
}

func (m *radialScene) N() int            { return len(m.dist) }
func (m *radialScene) Arena() geom.Rect  { return geom.Square(900) }
func (m *radialScene) MaxSpeed() float64 { return m.vmax }
func (m *radialScene) Horizon() float64  { return 100 }
func (m *radialScene) PositionAt(id int, t float64) geom.Point {
	return geom.Pt(450, 450).Add(geom.Polar(m.dist[id]+m.dir[id]*m.vmax*(t-m.t0), m.th[id]))
}

// TestReceiverScanInnerDiscBoundary drives the parallel scan's inner-disc
// shortcut at its edge, with the query after and before the snapshot and
// receivers split across domains: each domain's receivers must be exactly
// its owned nodes within range at the query instant.
func TestReceiverScanInnerDiscBoundary(t *testing.T) {
	const r, vmax, t0 = 250.0, 40.0, 10.0
	for _, dt := range []float64{0.25, 0.5, -0.5, 1.5} {
		disp := vmax * math.Abs(dt)
		in := r - disp - (1e-6 + 1e-9*r)
		m := &radialScene{vmax: vmax, t0: t0, dist: []float64{0}, dir: []float64{0}, th: []float64{0}}
		for _, dist := range []float64{in - 1e-7, in + 1e-7, r - disp, r - disp + 1e-4, r - 1e-4, r, r + disp - 1e-4, r + 1e-4} {
			for _, dir := range []float64{-1, 1} {
				m.dist = append(m.dist, dist)
				m.dir = append(m.dir, dir)
				m.th = append(m.th, 0.7*float64(len(m.th)))
			}
		}
		at := t0 + dt
		pos := m.PositionAt(0, at)
		for _, side := range []int{1, 2} {
			nw, err := NewNetwork(m, Config{Protocol: topology.RNG{}, Domains: side, ParallelWorkers: 1, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			pr := nw.newParRun()
			pr.snapshot(t0)
			total := 0
			for d := range pr.doms {
				var want []int
				for _, v := range pr.owned[d] {
					if v != 0 && m.PositionAt(v, at).Dist2(pos) <= r*r {
						want = append(want, v)
					}
				}
				got := append([]int(nil), pr.receivers(&pr.doms[d], d, 0, pos, at, r)...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Δ=%g, %dx%d domain %d: scan %v, brute force %v", dt, side, side, d, got, want)
				}
				total += len(want)
			}
			pr.close()
			if total < 8 {
				t.Fatalf("Δ=%g, %dx%d: vacuous scene, %d receivers", dt, side, side, total)
			}
		}
	}
}

// TestSelectWeakUsesCallerSelfPos pins the contract the region-parallel
// barrier relies on for weak consistency: selectWeak must select against
// the self position its caller passes (the position the beacon being
// processed actually advertised, rec.msg.Pos in the barrier), never
// against nd.advertisedPos — by barrier time, dispatch has already
// overwritten that field with the window's LAST beacon. The end-to-end
// matrix cannot see a violation (each window's final selection is computed
// from the last beacon either way), so this test plants a decoy in
// advertisedPos and asserts it is ignored.
//
// Geometry: node 0 at the origin with neighbors at (100,0) and (200,0).
// Seen from the origin, wRNG removes the (0,2) link (node 1 relays:
// cMin(0,2)=200 > max(100,100)); seen from the decoy (400,0), the self
// position set {(400,0),(0,0)} widens cMax(0,1) to 300, so both links
// survive. The two outcomes differ, so the assertion has teeth.
func TestSelectWeakUsesCallerSelfPos(t *testing.T) {
	origin := geom.Pt(0, 0)
	decoy := geom.Pt(400, 0)
	model := mobility.NewStatic(arena, []geom.Point{origin, geom.Pt(100, 0), geom.Pt(200, 0)}, 10)
	nw, err := NewNetwork(model, Config{
		Weak: topology.WeakRNG{},
		Mech: Mechanisms{WeakK: 2},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const now = 1.0
	nd := nw.nodes[0]
	nd.table.Observe(hello.Message{From: 1, Pos: geom.Pt(100, 0), SentAt: now, Version: 1})
	nd.table.Observe(hello.Message{From: 2, Pos: geom.Pt(200, 0), SentAt: now, Version: 1})
	// Each call plants the opposite value in advertisedPos, so whichever
	// of the two positions selectWeak actually reads, one assertion fires
	// — and the pair doubles as proof the geometry discriminates.
	nd.advertisedPos = origin
	nw.selectView(nd, now, selModeLatest, 0, decoy)
	if got := nw.LogicalNeighbors(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("selection(selfPos=decoy) = %v, want [1 2]: selectWeak ignored the caller's selfPos", got)
	}
	nd.advertisedPos = decoy
	nw.selectView(nd, now, selModeLatest, 0, origin)
	if got := nw.LogicalNeighbors(0); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("selection(selfPos=origin) = %v, want [1]: selectWeak read nd.advertisedPos instead of the caller's selfPos", got)
	}
}

// TestParallelFallbackConfigs pins the automatic serial fallback. Exactly
// two workloads remain unsupported by the region-parallel engine — the
// traffic subsystem (route tables and link-state views mutate at arbitrary
// nodes on every reception, so packet order across domains is semantic),
// and unicast probes (each walks every node on its path at one instant) —
// and they must still run, on the serial path, producing results identical to
// Domains = 0. If a config below ever becomes parallel-eligible, this test
// fails so the eligibility table in DESIGN.md and the differential matrix
// get extended first.
func TestParallelFallbackConfigs(t *testing.T) {
	const dur = 6.0
	model := parWaypoint(t, 40, 10, dur, 99)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"traffic-aodv", func(c *Config) {
			c.FloodRate = 0
			c.Traffic = traffic.Config{Mode: traffic.AODV, Flows: 4, Rate: 4}
		}},
		{"traffic-olsr", func(c *Config) {
			c.FloodRate = 0
			c.Traffic = traffic.Config{Mode: traffic.OLSR, Flows: 4, Rate: 4, TCInterval: 2}
		}},
		{"unicast", func(c *Config) {
			c.FloodRate = 0
			c.Unicast = UnicastConfig{Rate: 10}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Protocol: topology.RNG{}, FloodRate: 5, Seed: 3}
			tc.mutate(&cfg)
			nw, err := NewNetwork(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if nw.parallelEligible() {
				t.Fatal("config unexpectedly parallel-eligible with Domains = 0")
			}
			want := runDigest(t, model, cfg, dur)
			cfg.Domains = 2
			cfg.ParallelWorkers = 4
			nw2, err := NewNetwork(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if nw2.parallelEligible() {
				t.Fatalf("%s must fall back to the serial engine", tc.name)
			}
			if got := runDigest(t, model, cfg, dur); got != want {
				t.Errorf("%s: fallback digest %s != serial %s", tc.name, got[:16], want[:16])
			}
		})
	}
}

// TestParallelEligibility pins the eligibility frontier in BOTH directions:
// every feature the engine supports must report eligible (a regression here
// silently degrades every benchmark and smoke run to serial), and the
// documented fallbacks must not. TestParallelMatchesSerialMatrix proves the
// eligible set correct; this test proves it does not shrink.
func TestParallelEligibility(t *testing.T) {
	model := parWaypoint(t, 20, 10, 4, 5)
	cases := []struct {
		name     string
		mutate   func(*Config)
		eligible bool
	}{
		{"ideal", func(c *Config) {}, true},
		{"channel-delay", func(c *Config) { c.Channel.Delay = channel.DelayConfig{Max: 0.05} }, true},
		{"channel-loss-bernoulli", func(c *Config) { c.Channel.Loss = channel.LossConfig{Rate: 0.2} }, true},
		{"channel-loss-delay", func(c *Config) {
			c.Channel.Loss = channel.LossConfig{Rate: 0.2}
			c.Channel.Delay = channel.DelayConfig{Max: 0.05}
		}, true},
		{"reactive", func(c *Config) { c.Mech.Reactive = true }, true},
		{"reactive-faulty", func(c *Config) {
			c.Mech.Reactive = true
			c.Channel.Delay = channel.DelayConfig{Max: 0.05}
			c.Channel.Loss = channel.LossConfig{Rate: 0.2}
		}, true},
		{"mechanisms", func(c *Config) {
			c.Mech = Mechanisms{Buffer: 10, ViewSync: true, PhysicalNeighbors: true, Proactive: true}
		}, true},
		{"weak", func(c *Config) {
			c.Protocol, c.Weak = nil, topology.WeakRNG{}
			c.Mech.WeakK = 3
		}, true},
		{"traffic-aodv", func(c *Config) {
			c.FloodRate = 0
			c.Traffic = traffic.Config{Mode: traffic.AODV}
		}, false},
		{"traffic-olsr", func(c *Config) {
			c.FloodRate = 0
			c.Traffic = traffic.Config{Mode: traffic.OLSR}
		}, false},
		{"unicast", func(c *Config) {
			c.FloodRate = 0
			c.Unicast = UnicastConfig{Rate: 10}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Protocol: topology.RNG{}, FloodRate: 5, Seed: 3,
				Domains: 2, ParallelWorkers: 2,
			}
			tc.mutate(&cfg)
			nw, err := NewNetwork(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := nw.parallelEligible(); got != tc.eligible {
				t.Errorf("parallelEligible() = %v, want %v", got, tc.eligible)
			}
		})
	}
}

// TestParallelSampleMatchesDegreesAt pins the parallel metric sample to the
// serial definition: at every instant, the sum of the domains' degree
// counts over the snapshot index equals the sum of Medium.DegreesAt's
// per-node counts. Ranges mix 0, negative, normal and wider than the
// arena. The network runs on the ideal channel or with Bernoulli channel
// loss, which degrees, a property of the disc, must ignore on both
// engines. Each instant is sampled once at
// a snapshot it shares with a window start and once a little later, where
// the sample takes its own snapshot; a window started at the sample's
// instant must find the state a fresh snapshot would build.
func TestParallelSampleMatchesDegreesAt(t *testing.T) {
	const dur = 12.0
	model := parWaypoint(t, 80, 20, dur, 61)
	ranges := []float64{0, -10, 90, 250, 3000}
	for _, side := range []int{1, 2, 4} {
		for _, loss := range []float64{0, 0.15} {
			t.Run(fmt.Sprintf("%dx%d/loss=%g", side, side, loss), func(t *testing.T) {
				cfg := Config{Protocol: topology.RNG{}, Domains: side, ParallelWorkers: 2, Seed: 9}
				cfg.Channel.Loss = channel.LossConfig{Rate: loss}
				nw, err := NewNetwork(model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pr := nw.newParRun()
				defer pr.close()
				rs := make([]float64, model.N())
				for i, nd := range nw.nodes {
					nd.txRange = ranges[i%len(ranges)]
					rs[i] = nd.txRange
				}
				var deg []int
				total := 0
				for _, t0 := range []float64{0.5, 3.25, 7, 11.5} {
					pr.snapshot(t0) // a window start
					for _, at := range []float64{t0, t0 + 0.37} {
						got := pr.sampleDegrees(at)
						//lint:ignore float-eq the sample must leave the snapshot at exactly its instant
						if pr.snapAt != at {
							t.Fatalf("sample at %g left the snapshot at %g", at, pr.snapAt)
						}
						want := 0
						deg = nw.med.DegreesAt(at, rs, deg[:0])
						for _, k := range deg {
							want += k
						}
						if got != want {
							t.Fatalf("t=%g: domain degree sum %d, DegreesAt sum %d", at, got, want)
						}
						total += got

						// The window that starts at this instant reuses the
						// sample's snapshot: it must equal a fresh one.
						posT := append([]geom.Point(nil), pr.posT...)
						domainOf := append([]int(nil), pr.domainOf...)
						boxes := make([]geom.Rect, len(pr.doms))
						for d := range pr.doms {
							boxes[d] = pr.doms[d].box
						}
						pr.snapshot(at)
						if !reflect.DeepEqual(posT, pr.posT) || !reflect.DeepEqual(domainOf, pr.domainOf) {
							t.Fatalf("t=%g: the sample's snapshot differs from a fresh one", at)
						}
						for d := range pr.doms {
							if boxes[d] != pr.doms[d].box {
								t.Fatalf("t=%g: domain %d box %v, fresh snapshot %v", at, d, boxes[d], pr.doms[d].box)
							}
						}
					}
				}
				if total == 0 {
					t.Fatal("vacuous: every sample counted no neighbour")
				}
			})
		}
	}
}

// BenchmarkParallelSample times one metric sample on the region-parallel
// engine at large-n's scale: n = 1000 at paper density (a 2846 m square),
// random waypoint at 40 m/s, 2×2 domains on 2 workers, ranges as RNG
// selected them over 3 s of beacons, a new instant per iteration.
// "barrier" is the per-domain count barrier over a snapshot already taken
// at the instant, as when the window starting at the sample's fence would
// take it anyway; "snapshot+barrier" takes the snapshot too. "serial" is
// Medium.DegreesAt over the same instants, the dispatcher-side pass the
// parallel engine ran before samples became a barrier.
func BenchmarkParallelSample(b *testing.B) {
	const n, side, horizon = 1000, 2846.0, 60.0
	lo, hi := mobility.SpeedSetdest(40)
	model, err := mobility.NewRandomWaypoint(geom.Square(side), mobility.WaypointConfig{
		N: n, SpeedMin: lo, SpeedMax: hi, Horizon: horizon,
	}, xrand.New(3))
	if err != nil {
		b.Fatal(err)
	}
	nw, err := NewNetwork(model, Config{Protocol: topology.RNG{}, Domains: 2, ParallelWorkers: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	nw.Run(3)
	at := func(i int) float64 { return 3 + math.Mod(float64(i)*0.1, horizon-4) }
	for _, snap := range []bool{false, true} {
		name := "barrier"
		if snap {
			name = "snapshot+barrier"
		}
		b.Run(name, func(b *testing.B) {
			pr := nw.newParRun()
			defer pr.close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !snap {
					b.StopTimer()
					pr.snapshot(at(i))
					b.StartTimer()
				}
				pr.sampleDegrees(at(i))
			}
		})
	}
	b.Run("serial", func(b *testing.B) {
		ranges := make([]float64, n)
		for i, nd := range nw.nodes {
			ranges[i] = nd.txRange
		}
		deg := make([]int, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			deg = nw.med.DegreesAt(at(i), ranges, deg[:0])
		}
	})
}
