package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/manet"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public API (the layers themselves carry no instrumentation).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 0 = root
	Run    int    `json:"run"`    // task index, -1 when not per-run
	Worker int    `json:"worker"` // run slot
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span whose end has not been recorded yet. Its id is fixed
// at begin, so children can name it as their parent.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, parent, run, worker int) openSpan {
	return openSpan{t: t, s: span{ID: int(t.nextID.Add(1)), Name: name,
		Start: int64(time.Since(t.origin)), Parent: parent, Run: run, Worker: worker}}
}

func (o openSpan) end() {
	o.s.End = int64(time.Since(o.t.origin))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(name string, start, end time.Time, parent, run, worker int) {
	s := span{ID: int(t.nextID.Add(1)), Name: name, Start: int64(start.Sub(t.origin)),
		End: int64(end.Sub(t.origin)), Parent: parent, Run: run, Worker: worker}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}

// selectStats aggregates the selection-kernel calls of one run. Calls are
// counted, not recorded as spans: a fig6 pass makes a quarter of a million
// of them.
//
// The region-parallel engine's domain workers select concurrently, each
// through its own topology.Scratch, and a scratch is used by one goroutine
// at a time (the engine's barriers order successive users). So the stats
// are sharded by scratch: the hot path is a sync.Map read and plain
// increments, with no lock two workers could contend on.
type selectStats struct {
	shards sync.Map // *topology.Scratch -> *selectShard
}

type selectShard struct {
	calls, nbrs int
	busy        time.Duration
	durs        []time.Duration
}

func (st *selectStats) record(s *topology.Scratch, d time.Duration, nbrs int) {
	v, ok := st.shards.Load(s)
	if !ok {
		v, _ = st.shards.LoadOrStore(s, &selectShard{})
	}
	sh := v.(*selectShard)
	sh.calls++
	sh.nbrs += nbrs
	sh.busy += d
	sh.durs = append(sh.durs, d)
}

// total merges the shards. Call it only after the run has returned.
func (st *selectStats) total() selectShard {
	var t selectShard
	st.shards.Range(func(_, v any) bool {
		sh := v.(*selectShard)
		t.calls += sh.calls
		t.nbrs += sh.nbrs
		t.busy += sh.busy
		t.durs = append(t.durs, sh.durs...)
		return true
	})
	return t
}

// selectProbe wraps a topology.Protocol: SelectInto delegates to the inner
// protocol's kernel and times the call. The inner protocol values are pure,
// so the wrapper is as safe for concurrent domain workers as they are.
type selectProbe struct {
	inner topology.Protocol
	st    *selectStats
}

func (p selectProbe) Name() string                 { return p.inner.Name() }
func (p selectProbe) Select(v topology.View) []int { return p.SelectInto(v, nil, &topology.Scratch{}) }

func (p selectProbe) SelectInto(v topology.View, dst []int, s *topology.Scratch) []int {
	t0 := time.Now()
	out := topology.SelectInto(p.inner, v, dst, s)
	p.st.record(s, time.Since(t0), len(v.Neighbors))
	return out
}

// weakSelectProbe is selectProbe for weak-consistency selectors.
type weakSelectProbe struct {
	inner topology.WeakProtocol
	st    *selectStats
}

func (p weakSelectProbe) Name() string { return p.inner.Name() }
func (p weakSelectProbe) SelectWeak(v topology.MultiView) []int {
	return p.SelectWeakInto(v, nil, &topology.Scratch{})
}

func (p weakSelectProbe) SelectWeakInto(v topology.MultiView, dst []int, s *topology.Scratch) []int {
	t0 := time.Now()
	out := topology.SelectWeakInto(p.inner, v, dst, s)
	p.st.record(s, time.Since(t0), len(v.Neighbors))
	return out
}

// tracedRun is what one traced simulation run reports besides its result.
type tracedRun struct {
	ok      bool // the run completed
	res     manet.Result
	sel     selectShard   // every selection call of the run
	runTime time.Duration // Network.Run
}

// computeTraced rebuilds experiment.ComputeRun from the layers' public
// APIs — the same seed derivation (xrand substreams 'm' and 'n' keyed by
// Run.ConfigKey), the same configuration, and the same workload overrides
// — with spans around each layer call and the protocol wrapped in a
// selectProbe. Its results must equal ComputeRun's bit for bit; the traced
// passes check that on every task.
func computeTraced(o experiment.Options, r experiment.Run, tr *tracer, run, worker int) (tracedRun, error) {
	root := tr.begin("run", 0, run, worker)
	out, err := computeTracedSpans(o, r, tr, root.s.ID, run, worker)
	root.end()
	return out, err
}

func computeTracedSpans(o experiment.Options, r experiment.Run, tr *tracer, parent, run, worker int) (tracedRun, error) {
	sp := tr.begin("mobility.NewRandomWaypoint", parent, run, worker)
	model, err := buildModel(o, r)
	sp.end()
	if err != nil {
		return tracedRun{}, err
	}
	ch := o.Channel
	if r.Channel.Enabled() {
		ch = r.Channel
	}
	cfg := manet.Config{
		NormalRange:      o.NormalRange,
		Mech:             r.Mech,
		FloodRate:        o.FloodRate,
		Radio:            o.Radio,
		Channel:          ch,
		SnapshotEvery:    o.SnapshotEvery,
		NoSelectionCache: o.NoSelectionCache,
		Domains:          o.Domains,
		ParallelWorkers:  o.EngineWorkers,
		Seed:             xrand.New(o.Seed).Sub('n', r.ConfigKey(), uint64(r.Rep)).Uint64(),
	}
	if r.Traffic.Enabled() {
		cfg.FloodRate = 0
		cfg.Traffic = r.Traffic
	}
	if r.Unicast.Rate > 0 {
		cfg.FloodRate = 0
	}
	st := &selectStats{}
	if r.Mech.WeakK > 0 {
		w, err := topology.WeakByName(r.Protocol, o.NormalRange)
		if err != nil {
			return tracedRun{}, err
		}
		cfg.Weak = weakSelectProbe{inner: w, st: st}
	} else {
		p, err := topology.ByName(r.Protocol, o.NormalRange)
		if err != nil {
			return tracedRun{}, err
		}
		cfg.Protocol = selectProbe{inner: p, st: st}
	}
	sp = tr.begin("manet.NewNetwork", parent, run, worker)
	nw, err := manet.NewNetwork(model, cfg)
	sp.end()
	if err != nil {
		return tracedRun{}, err
	}
	t0 := time.Now()
	var res manet.Result
	if r.Unicast.Rate > 0 {
		ur, err := nw.RunUnicast(o.Duration, r.Unicast)
		if err != nil {
			return tracedRun{}, err
		}
		res = manet.Result{Protocol: cfg.ProtocolName(), Unicast: ur}
	} else {
		res = nw.Run(o.Duration)
	}
	t1 := time.Now()
	tr.add("manet.Network.Run", t0, t1, parent, run, worker)
	return tracedRun{ok: true, res: res, sel: st.total(), runTime: t1.Sub(t0)}, nil
}
