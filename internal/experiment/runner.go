// Package experiment drives the paper's evaluation: it sweeps protocol ×
// speed × mechanism configurations, fans independent repetitions out over a
// worker pool, aggregates results with 95 % confidence intervals, and
// renders the tables and figure series of §5.
//
// Determinism: repetition r of any configuration always uses the mobility
// substream (seed, speed, r) and the network substream (seed, cfg, r), so
// results are identical regardless of worker count, and different protocols
// are compared on *paired* mobility traces (the variance-reduction setup a
// simulation study wants).
package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"mstc/internal/geom"

	"mstc/internal/channel"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/radio"
	"mstc/internal/sweep"
	"mstc/internal/topology"
	"mstc/internal/traffic"
	"mstc/internal/xrand"
)

// Options are the evaluation-wide knobs. The zero value is not valid; start
// from DefaultOptions (paper scale) or QuickOptions (CI scale).
type Options struct {
	// N is the node count (paper: 100).
	N int
	// ArenaSide is the square arena side in meters (paper: 900).
	ArenaSide float64
	// NormalRange is the normal transmission range in meters (paper: 250).
	NormalRange float64
	// Speeds are the average moving speeds (m/s) swept by the figures
	// (paper: 1…160; speed s means per-leg speeds uniform in (0, 2s],
	// the setdest convention).
	Speeds []float64
	// Buffers are the buffer-zone widths (m) swept by Figs. 7–10.
	Buffers []float64
	// Reps is the number of independent repetitions (paper: 20).
	Reps int
	// Duration is seconds of simulated time per run (paper: 100).
	Duration float64
	// FloodRate is connectivity probes per second (paper: 10).
	FloodRate float64
	// Seed is the root seed for the whole evaluation.
	Seed uint64
	// Workers bounds run concurrency; 0 means GOMAXPROCS.
	Workers int
	// Radio overrides the radio medium configuration (zero value: the
	// medium's defaults). Results are independent of the bounded-staleness
	// knob Radio.Slack by construction; the determinism tests pin that.
	Radio radio.Config
	// Channel applies a non-ideal channel (loss, delay) to every run
	// that does not set its own Run.Channel. The zero value is the ideal
	// channel, and leaves every substream label — and hence every result —
	// bit-identical to an evaluation without the subsystem.
	Channel channel.Config
	// SnapshotEvery, if positive, samples strict (snapshot) connectivity of
	// the directed effective topology every that many seconds in every run.
	SnapshotEvery float64
	// NoSelectionCache has no effect, and no run reads it. The field stays
	// only until the bench module stops setting it.
	NoSelectionCache bool
	// Domains, when >= 1, runs every simulation on the region-parallel
	// engine with a Domains×Domains spatial decomposition. Results are
	// bit-identical to the serial engine (manet's differential matrix and
	// TestDigestUnchangedByEngineParallelism pin that); configurations the
	// parallel engine cannot honor fall back to serial automatically.
	Domains int
	// EngineWorkers is the per-run worker-goroutine count draining the
	// domains (distinct from Workers, which bounds run-level concurrency).
	// Requires Domains >= 1.
	EngineWorkers int

	// Store, when non-nil, persists every completed run (keyed by the
	// options fingerprint and the run's substream key) and satisfies
	// tasks whose record already verifies without recomputing them. See
	// internal/sweep for the on-disk format and crash-safety contract.
	Store *sweep.Store
	// Retry is the number of additional attempts for a run whose
	// simulation panics before it is journaled as a failure (0 = fail on
	// the first panic). Deterministic configuration errors never retry.
	Retry int
	// Interrupt, when non-nil, is polled before each run is dispatched;
	// once it returns true no new runs start, in-flight runs finish and
	// are journaled, and Execute returns sweep.ErrInterrupted. Must be
	// safe for concurrent use.
	Interrupt func() bool
	// Progress, when non-nil, is called after each *computed* run (store
	// hits excluded) with the completed and total pending counts of the
	// current Execute call. Must be safe for concurrent use; it is
	// invoked from worker goroutines.
	Progress func(done, total int)
}

// DefaultOptions returns the paper's configuration (§5.1).
func DefaultOptions() Options {
	return Options{
		N:           100,
		ArenaSide:   900,
		NormalRange: 250,
		Speeds:      []float64{1, 20, 40, 80, 160},
		Buffers:     []float64{0, 1, 10, 100},
		Reps:        20,
		Duration:    100,
		FloodRate:   10,
		Seed:        2004,
	}
}

// QuickOptions returns a scaled-down configuration for tests and benches:
// same network, fewer/shorter repetitions.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Reps = 3
	o.Duration = 20
	o.Speeds = []float64{1, 40, 160}
	o.Buffers = []float64{0, 10, 100}
	return o
}

// Validate reports option errors.
func (o Options) Validate() error {
	switch {
	case o.N < 2:
		return fmt.Errorf("experiment: N = %d < 2", o.N)
	case o.ArenaSide <= 0 || o.NormalRange <= 0:
		return fmt.Errorf("experiment: bad geometry arena=%g range=%g", o.ArenaSide, o.NormalRange)
	case len(o.Speeds) == 0:
		return fmt.Errorf("experiment: no speeds")
	case o.Reps < 1:
		return fmt.Errorf("experiment: Reps = %d < 1", o.Reps)
	case !(o.Duration > 0) || math.IsInf(o.Duration, 0):
		return fmt.Errorf("experiment: Duration = %g, want positive and finite", o.Duration)
	}
	return manet.ValidateEngine(o.Domains, o.EngineWorkers)
}

// Run is one simulation task: a protocol/mechanism configuration at one
// speed, one repetition.
type Run struct {
	// Protocol is a registry name ("MST", "RNG", "SPT-2", "SPT-4", ...).
	Protocol string
	// Speed is the average moving speed in m/s.
	Speed float64
	// Mech are the active mechanisms.
	Mech manet.Mechanisms
	// Channel, when non-zero, overrides Options.Channel for this task — the
	// fault-injection sweeps vary it per point.
	Channel channel.Config
	// Traffic, when enabled, replaces the flood workload with CBR flows
	// routed by the configured protocol (AODV/OLSR) — the routing
	// comparison varies it per task. Flooding is forced off for such runs.
	Traffic traffic.Config
	// Unicast, when Rate > 0, replaces the flood workload with greedy
	// geographic unicast probes (Config.Unicast) — the routing extension.
	// Flooding is forced off for such runs.
	Unicast manet.UnicastConfig
	// Rep is the repetition index in [0, Reps).
	Rep int
}

// key returns the label deduplicating network substreams per configuration:
// FNV-1a over a canonical byte encoding of every configuration-defining
// field. The protocol name is hashed with a 0 terminator (no prefix
// aliasing), Speed and Buffer as their exact IEEE-754 bit patterns, the
// four mechanism booleans as one flag byte, and WeakK as a full word — so
// any two distinct configurations, including ones differing only in
// Proactive (which the previous ad-hoc XOR mix ignored), get distinct
// substream labels. Flag bits 8 and 16 are retired (they marked two
// removed flood-forwarding mechanisms) and must not be reused: stores
// journaled while they existed address records by these labels. Rep is
// deliberately excluded: repetitions of one configuration share the label
// and are distinguished by the substream index.
//
//manet:hashes Run
//manet:hash-exclude Rep repetitions share the configuration label and are distinguished by the Sub(..., rep) substream index
func (r Run) key() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	mix := func(b byte) {
		h = (h ^ uint64(b)) * fnvPrime
	}
	word := func(w uint64) {
		for i := 0; i < 64; i += 8 {
			mix(byte(w >> i))
		}
	}
	for i := 0; i < len(r.Protocol); i++ {
		mix(r.Protocol[i])
	}
	mix(0)
	word(math.Float64bits(r.Speed))
	word(math.Float64bits(r.Mech.Buffer))
	var flags byte
	if r.Mech.ViewSync {
		flags |= 1
	}
	if r.Mech.PhysicalNeighbors {
		flags |= 2
	}
	if r.Mech.Reactive {
		flags |= 4
	}
	if r.Mech.Proactive {
		flags |= 32
	}
	mix(flags)
	word(uint64(r.Mech.WeakK))
	// Channel parameters are hashed only when the task's channel is
	// non-ideal: the ideal default must keep every pre-channel substream
	// label (and hence every golden digest) bit-identical. The retired
	// loss-model byte and burst-loss and churn words stay as zeros, so
	// store addresses stay put.
	if r.Channel.Enabled() {
		mix(1)
		mix(0)
		word(math.Float64bits(r.Channel.Loss.Rate))
		word(0)
		word(0)
		word(0)
		word(math.Float64bits(r.Channel.Delay.Min))
		word(math.Float64bits(r.Channel.Delay.Max))
		word(0)
		word(0)
	}
	// Workload overrides follow the same conditional pattern, each under
	// its own domain-separation byte: flood-workload run keys (and hence
	// the golden digests) stay bit-identical.
	if r.Traffic.Enabled() {
		mix(2)
		mix(byte(r.Traffic.Mode))
		word(uint64(r.Traffic.Flows))
		word(math.Float64bits(r.Traffic.Rate))
		word(uint64(r.Traffic.Packets))
		word(uint64(r.Traffic.TTLStart))
		word(uint64(r.Traffic.TTLMax))
		word(uint64(r.Traffic.MaxRetries))
		word(math.Float64bits(r.Traffic.RingTimeout))
		word(math.Float64bits(r.Traffic.RouteLifetime))
		word(math.Float64bits(r.Traffic.TCInterval))
	}
	if r.Unicast.Rate > 0 {
		mix(3)
		word(math.Float64bits(r.Unicast.Rate))
		word(uint64(r.Unicast.MaxHops))
	}
	return h
}

// forEachTask runs fn(i) for every i in [0, n), fanning out over up to
// `workers` goroutines (GOMAXPROCS when workers <= 0). This is the single
// blessed concurrency point of the repository (see internal/lint's
// no-naked-goroutine check): replay safety holds because every task i is
// independent, seeds its own xrand substreams, and writes only slot i of
// the caller's result slices — so results are identical for any worker
// count or schedule.
func forEachTask(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	// Buffered to the task count: the producer below never blocks, so
	// workers draining fast tasks are fed without a rendezvous per index.
	ch := make(chan int, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// Execute runs all tasks, Workers at a time, and returns their results in
// task order. With Options.Store set, already-journaled runs are read
// back instead of recomputed and fresh completions are journaled; see
// executeAll (store.go) for the resumable semantics.
func Execute(o Options, tasks []Run) ([]manet.Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return executeAll(o, tasks)
}

// executeOne builds and runs a single simulation.
func executeOne(o Options, r Run) (manet.Result, error) {
	arena := geom.Square(o.ArenaSide)
	lo, hi := mobility.SpeedSetdest(r.Speed)
	// Paired mobility: same (seed, speed, rep) trace for every protocol,
	// mechanism, and workload configuration — flood, unicast, and traffic
	// runs at the same point all replay the exact same node trajectories.
	mobilitySeed := xrand.New(o.Seed).Sub('m', uint64(r.Speed*1000), uint64(r.Rep)).Uint64()
	model, err := mobility.NewRandomWaypoint(arena, mobility.WaypointConfig{
		N: o.N, SpeedMin: lo, SpeedMax: hi, Horizon: o.Duration,
	}, xrand.New(mobilitySeed))
	if err != nil {
		return manet.Result{}, err
	}
	ch := o.Channel
	if r.Channel.Enabled() {
		ch = r.Channel
	}
	cfg := manet.Config{
		NormalRange:     o.NormalRange,
		Mech:            r.Mech,
		FloodRate:       o.FloodRate,
		Radio:           o.Radio,
		Channel:         ch,
		SnapshotEvery:   o.SnapshotEvery,
		Domains:         o.Domains,
		ParallelWorkers: o.EngineWorkers,
		Seed:            xrand.New(o.Seed).Sub('n', r.key(), uint64(r.Rep)).Uint64(),
	}
	// A task carries exactly one probe workload: traffic and unicast
	// overrides replace the flood probes rather than stacking on them.
	if r.Traffic.Enabled() {
		cfg.FloodRate = 0
		cfg.Traffic = r.Traffic
	}
	if r.Unicast.Enabled() {
		cfg.FloodRate = 0
		cfg.Unicast = r.Unicast
	}
	if r.Mech.WeakK > 0 {
		w, err := topology.WeakByName(r.Protocol, o.NormalRange)
		if err != nil {
			return manet.Result{}, err
		}
		cfg.Weak = w
	} else {
		p, err := topology.ByName(r.Protocol, o.NormalRange)
		if err != nil {
			return manet.Result{}, err
		}
		cfg.Protocol = p
	}
	nw, err := manet.NewNetwork(model, cfg)
	if err != nil {
		return manet.Result{}, err
	}
	res := nw.Run(o.Duration)
	if r.Unicast.Enabled() {
		// Unicast records keep their stored shape (protocol and probe
		// counters only), so existing result stores stay byte-identical.
		res = manet.Result{Protocol: res.Protocol, Unicast: res.Unicast}
	}
	return res, nil
}
