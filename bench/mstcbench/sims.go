package main

import (
	"fmt"
	"runtime"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/manet"
)

// simBench is one workload instance. It drives simulation runs directly
// through experiment.ComputeRun: either on a pool of `slots` goroutines
// (fig6-flood, consistency-mech) or one at a time on the region-parallel
// engine (large-n).
//
// Pass k runs batch k: the workload's tasks with every repetition index
// shifted by k*stride, so each pass simulates fresh mobility traces and
// seeds. One trace set costs up to 5 % more or less than another with the
// same configurations, and a run that repeated one batch would carry that
// offset whole into every metric; the median over distinct batches does not.
type simBench struct {
	c        *config
	tasks    []experiment.Run     // batch 0
	taskOpts []experiment.Options // per task: large-n varies Domains
	stride   int                  // repetition indices per batch
	// sequential runs the tasks one at a time, each settled (see settle),
	// so peak RSS is measured per run.
	sequential bool
	// pairs marks large-n's (Domains 2, Domains 4) task pairs, whose
	// results must be bit-identical.
	pairs bool

	acc layerAcc
	ref *refClock // made by warmup, outside set-up and the passes
}

// layerAcc accumulates the traced passes' per-layer counts.
type layerAcc struct {
	runs          int
	helloTx       int
	calls, nbrs   int
	selDurs       []time.Duration
	selBusy       map[string]time.Duration // by protocol
	runBusy       map[string]time.Duration // Network.Run time by protocol
	gridRun       map[int][]time.Duration  // Network.Run time by Domains
	cachedCalls   int                      // kernel calls of the sampled tasks, cache on
	uncachedCalls int                      // the same tasks with NoSelectionCache
}

func newSimBench(c *config, opts experiment.Options, tasks []experiment.Run, stride int) *simBench {
	b := &simBench{c: c, tasks: tasks, stride: stride}
	for range tasks {
		b.taskOpts = append(b.taskOpts, opts)
	}
	b.acc.selBusy = map[string]time.Duration{}
	b.acc.runBusy = map[string]time.Duration{}
	b.acc.gridRun = map[int][]time.Duration{}
	return b
}

// batch returns the tasks of batch k. experiment.ComputeRun derives a
// run's mobility trace and seed from its repetition index, so the batches
// are the repetitions TaskSet would enumerate under more Reps.
func (b *simBench) batch(k int) []experiment.Run {
	out := make([]experiment.Run, len(b.tasks))
	for i, t := range b.tasks {
		t.Rep += k * b.stride
		out[i] = t
	}
	return out
}

// warmup runs one task per slot (one task when sequential), untimed, so
// lazy state and caches are filled before the first timed pass; the
// harness repeats it until warmupMin has passed. The first call also makes
// the reference clock, outside every pass's allocation count.
func (b *simBench) warmup() error {
	if b.ref == nil {
		b.ref = newRefClock(b.c.slots)
	}
	n := b.c.slots
	if b.sequential {
		n = 1
	}
	if n > len(b.tasks) {
		n = len(b.tasks)
	}
	if b.sequential {
		runtime.GC() // as before every timed run
	}
	errs := make([]error, n)
	runPool(n, n, func(i, _ int) {
		_, errs[i] = experiment.ComputeRun(b.taskOpts[i], b.tasks[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pass runs every task of batch k once untraced, or — when tr is set —
// twice: an untraced twin (into baseline) and a traced run, back to back on
// the same slot, in alternating order, so the tracing overhead is measured
// on paired runs. A traced pass records spans into tr and accumulates the
// per-layer counts. The pass starts settled (see measuredPass).
//
// Sequential runs each start from a collected heap, and the pass's peak
// RSS is taken right after its first run, the one that also starts from
// settled memory. Later runs reuse the pages earlier runs freed, as the
// runs of one sweep do; their own peaks would depend on every run before.
func (b *simBench) pass(k int, tr *tracer) (*passResult, error) {
	tasks := b.batch(k)
	n := len(tasks)
	results := make([]manet.Result, n)
	errs := make([]error, n)
	durs := make([]time.Duration, n)
	var peak float64
	// Untraced passes time a reference chunk before every run, on the
	// run's own slot (sequential runs: on every engine worker's); traced
	// times are not scaled.
	var ref *refClock
	if tr == nil {
		ref = b.ref
		ref.reset()
	}
	untraced := func(i, slot int, res *manet.Result, err *error, dur *time.Duration) {
		if b.sequential {
			runtime.GC() // outside the run's timing
		}
		switch {
		case ref == nil:
		case b.sequential:
			ref.tickAll()
		default:
			ref.tick(slot)
		}
		t0 := time.Now()
		*res, *err = experiment.ComputeRun(b.taskOpts[i], tasks[i])
		*dur = time.Since(t0)
		if b.sequential && peak == 0 {
			peak = peakRSSMB()
		}
	}
	var traced []tracedRun
	var twins []manet.Result
	var twinErrs []error
	var twinDurs []time.Duration
	if tr != nil {
		traced = make([]tracedRun, n)
		twins = make([]manet.Result, n)
		twinErrs = make([]error, n)
		twinDurs = make([]time.Duration, n)
	}
	tracedRun := func(i, slot int) {
		if b.sequential {
			runtime.GC()
		}
		t0 := time.Now()
		traced[i], errs[i] = computeTraced(b.taskOpts[i], tasks[i], tr, i, slot)
		durs[i] = time.Since(t0)
		results[i] = traced[i].res
	}
	runOne := func(i, slot int) {
		switch {
		case tr == nil:
			untraced(i, slot, &results[i], &errs[i], &durs[i])
		case i%2 == 0:
			untraced(i, slot, &twins[i], &twinErrs[i], &twinDurs[i])
			tracedRun(i, slot)
		default:
			tracedRun(i, slot)
			untraced(i, slot, &twins[i], &twinErrs[i], &twinDurs[i])
		}
	}
	pr := &passResult{runs: n, durs: durs, baseline: twinDurs, slots: b.c.slots}
	if tr != nil {
		pr.runs = 2 * n
	}
	if b.sequential {
		pr.slots = 1
		for i := range tasks {
			runOne(i, 0)
		}
		pr.wall = sumDur(durs) + sumDur(twinDurs)
		pr.peak = peak
	} else {
		pr.wall = runPool(b.c.slots, n, runOne)
		pr.peak = peakRSSMB()
	}
	if ref != nil {
		pr.ref = ref.totals()
		if !b.sequential {
			// Each slot spent its share of the chunks' time besides its runs.
			pr.wall -= pr.ref.wall / time.Duration(b.c.slots)
		}
	}

	for i, t := range tasks {
		if errs[i] != nil {
			pr.failf("%s: %v", t.Desc(), errs[i])
		}
		h := resultHash(results[i])
		pr.hashes = append(pr.hashes, h)
		pr.digestLines = append(pr.digestLines, fmt.Sprintf("%s domains=%d %s", t.Desc(), b.taskOpts[i].Domains, h))
		if tr == nil {
			continue
		}
		if twinErrs[i] != nil {
			pr.failf("%s untraced: %v", t.Desc(), twinErrs[i])
		} else if resultHash(twins[i]) != h {
			pr.failf("%s: traced result differs from the untraced result", t.Desc())
		}
	}
	if b.pairs {
		for i := 0; i+1 < n; i += 2 {
			if pr.hashes[i] != pr.hashes[i+1] {
				pr.failf("%s: Domains %d and %d results differ", tasks[i].Desc(),
					b.taskOpts[i].Domains, b.taskOpts[i+1].Domains)
			}
		}
	}
	if tr != nil {
		b.absorbTraced(tasks, traced, pr)
	}
	return pr, nil
}

// replay is the determinism oracle of an untimed pass: it runs one task in
// twenty of batch k again, outside the pass's timing, and the result must
// equal the pass's bit for bit. The sample's offset moves with k, so a run
// of several passes samples every part of the task set.
func (b *simBench) replay(k int, pr *passResult) {
	tasks := b.batch(k)
	for i := k % replayEvery; i < len(tasks); i += replayEvery {
		res, err := experiment.ComputeRun(b.taskOpts[i], tasks[i])
		switch {
		case err != nil:
			pr.failf("%s replay: %v", tasks[i].Desc(), err)
		case resultHash(res) != pr.hashes[i]:
			pr.failf("%s: replayed result differs from the pass's", tasks[i].Desc())
		}
	}
}

// replayEvery is the replay oracle's sampling stride.
const replayEvery = 20

// absorbTraced folds a traced pass into the layer counts and runs the
// selection-cache oracle: one task in ten again with NoSelectionCache,
// untimed, which must give the same result from at least as many kernel
// calls. The sampled task's offset within each block of ten rotates, so
// the sample does not alias with the task sets' nesting (a fixed stride of
// ten over consistency's mechanisms × reps nesting keeps landing on the
// same two of its five mechanisms).
func (b *simBench) absorbTraced(tasks []experiment.Run, traced []tracedRun, pr *passResult) {
	a := &b.acc
	for i, t := range traced {
		if !t.ok {
			continue // the run failed; already counted
		}
		a.runs++
		a.helloTx += t.res.HelloTx
		a.calls += t.sel.calls
		a.nbrs += t.sel.nbrs
		a.selDurs = append(a.selDurs, t.sel.durs...)
		p := tasks[i].Protocol
		a.selBusy[p] += t.sel.busy
		a.runBusy[p] += t.runTime
		d := b.taskOpts[i].Domains
		a.gridRun[d] = append(a.gridRun[d], t.runTime)
	}
	discard := newTracer()
	for block := 0; 10*block < len(tasks); block++ {
		i := 10*block + block%10
		if i >= len(tasks) || !traced[i].ok {
			continue
		}
		o := b.taskOpts[i]
		o.NoSelectionCache = true
		u, err := computeTraced(o, tasks[i], discard, i, 0)
		if err != nil {
			pr.failf("%s without selection cache: %v", tasks[i].Desc(), err)
			continue
		}
		if resultHash(u.res) != pr.hashes[i] {
			pr.failf("%s: result differs without the selection cache", tasks[i].Desc())
			continue
		}
		a.cachedCalls += traced[i].sel.calls
		a.uncachedCalls += u.sel.calls
	}
}

func (b *simBench) layers(tr *tracer, ms metricSet, notes map[string]string) error {
	a := &b.acc
	var selBusy, runBusy time.Duration
	for p, d := range a.selBusy {
		selBusy += d
		runBusy += a.runBusy[p]
	}
	ms["topology.busy_frac"] = ratio(selBusy.Seconds(), runBusy.Seconds())
	for _, p := range []string{"MST", "RNG", "SPT-2", "SPT-4"} {
		ms["topology.busy_frac."+p] = ratio(a.selBusy[p].Seconds(), a.runBusy[p].Seconds())
		if a.runBusy[p] == 0 {
			notes["topology.busy_frac."+p] = "n/a: no " + p + " runs in this workload"
		}
	}
	sel := inUnits(a.selDurs, time.Microsecond)
	ms["topology.select_us_p50"] = quantile(sel, 0.5)
	ms["topology.select_us_p90"] = quantile(sel, 0.9)
	ms["topology.view_nbrs_mean"] = ratio(float64(a.nbrs), float64(a.calls))
	ms["topology.calls_per_run"] = ratio(float64(a.calls), float64(a.runs))
	ms["topology.calls_per_hello"] = ratio(float64(a.calls), float64(a.helloTx))
	ms["manet.selcache_hit_frac"] = 1 - ratio(float64(a.cachedCalls), float64(a.uncachedCalls))
	notes["topology.calls_per_hello"] = fmt.Sprintf("%d kernel calls / %d hellos", a.calls, a.helloTx)
	notes["manet.selcache_hit_frac"] = fmt.Sprintf("1 - %d/%d kernel calls on one task in ten", a.cachedCalls, a.uncachedCalls)

	ms["manet.new_network_ms_p50"] = median(millis(tr.durations("manet.NewNetwork")))
	ms["manet.run_ms_p50"] = median(millis(tr.durations("manet.Network.Run")))
	ms["mobility.build_ms_p50"] = median(millis(tr.durations("mobility.NewRandomWaypoint")))
	g2, g4 := median(millis(a.gridRun[2])), median(millis(a.gridRun[4]))
	ms["manet.grid2_run_ms_p50"] = g2
	ms["manet.grid4_run_ms_p50"] = g4
	ms["manet.grid_swing"] = ratio(g2, g4)
	if len(a.gridRun[2]) == 0 {
		for _, name := range []string{"manet.grid2_run_ms_p50", "manet.grid4_run_ms_p50", "manet.grid_swing"} {
			notes[name] = "n/a: large-n only"
		}
	}

	model, err := buildModel(b.taskOpts[0], b.tasks[0])
	if err != nil {
		return err
	}
	return radioHelloProbes(model, b.c.probeTime(), ms, notes)
}
