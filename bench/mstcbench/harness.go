package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mstc/internal/manet"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // timed measurement length when passes is 0
	passes   int     // exact timed pass count; 0 = as many as fit in seconds
	trace    bool
	traceDir string
	workdir  string // scratch directory, removed at exit
	smoke    bool   // tiny inputs, for the package's own tests
	env      hostEnv
	slots    int // concurrent runs (or engine workers)
}

// setupReps is how many fresh processes time the workload's set-up;
// setup_s is the median, so one slow start does not read as a regression.
// Each takes a few milliseconds.
const setupReps = 21

// another reports whether a timed loop that has run n passes, the last of
// which took last, should start one more: exactly c.passes when that is
// set; otherwise at least min, then only while the next pass is expected
// to end nearer to c.seconds than stopping now would. A run therefore lasts
// c.seconds give or take half a pass, whatever the host's speed.
func (c *config) another(n, min int, elapsed, last time.Duration) bool {
	switch {
	case c.passes > 0:
		return n < c.passes
	case n < min:
		return true
	}
	return (elapsed + last/2).Seconds() < c.seconds
}

// probeTime is how long each per-layer probe runs at least.
func (c *config) probeTime() time.Duration {
	if c.smoke {
		return 0
	}
	return probeMin
}

// warmupMin is the least time warm-up runs. On shared virtual machines an
// idle vCPU comes back at about half speed for its first second of work
// (measured on the 2-core host the README's numbers come from), which one
// warm-up run does not cover; the first timed pass would absorb it.
const warmupMin = 2 * time.Second

// childEnv marks a process the benchmark started to time its set-up. The
// package's test binary checks it in TestMain to act as the command.
const childEnv = "MSTCBENCH_CHILD=1"

// measureSetups times setupReps fresh processes that each start, build
// the workload's inputs (prepare) and exit: set-up time from process start
// to the point where the first pass could begin, including everything the
// program initializes before main. Each child is waited for, and each is
// preceded by a reference chunk on ref.
func measureSetups(c *config, ref *refClock) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", c.workload, "-seed", fmt.Sprint(c.seed),
		"-workdir", filepath.Join(c.workdir, "setup"), "-setup-only"}
	if c.smoke {
		args = append(args, "-smoke")
	}
	out := make([]float64, setupReps)
	for k := range out {
		ref.tick(0)
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), childEnv)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		t0 := time.Now()
		err := cmd.Run()
		out[k] = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
	}
	return out, nil
}

// workloadDef names a workload and builds its instances.
type workloadDef struct {
	name    string
	why     string
	prepare func(c *config) (*simBench, error)
}

// passResult is what one pass reports.
type passResult struct {
	runs   int
	failed int // runs that errored or failed an oracle
	checks []string
	wall   time.Duration   // throughput denominator
	durs   []time.Duration // per-run times
	// baseline holds, in a traced pass, the untraced twin's time of each
	// run in durs.
	baseline []time.Duration
	slots    int // concurrent run slots (pool idle denominator)
	// hashes identify each task's outcome bit for bit, for the oracles
	// that run a task again.
	hashes []string
	// digestLines feed the printed results digest (task descriptors and
	// result hashes, in task order); it is taken over the first pass,
	// which every run of a seed makes.
	digestLines []string
	// peak is the resident-set peak in MB of the pass, or of its first run
	// when the runs go one at a time.
	peak float64
	// ref is what the reference chunks an untraced pass ran before its
	// runs measured (see hostspeed.go). wall, durs and cpu leave the
	// chunks out.
	ref refStats
	// Process-wide resource use over the pass, filled by the harness.
	cpu    time.Duration
	alloc  uint64
	faults int64 // minor page faults
}

func (p *passResult) runsPerSec() float64 { return ratio(float64(p.runs), p.wall.Seconds()) }

func (p *passResult) failf(format string, args ...any) {
	p.failed++
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

// resultHash identifies a run's result bit for bit: %#v prints every float
// with the shortest representation that round-trips.
func resultHash(res manet.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", res)))
	return hex.EncodeToString(sum[:16])
}

// runPool runs fn(i, slot) for every i in [0, n) on `slots` goroutines and
// returns the wall time from the first dispatch to the last completion.
func runPool(slots, n int, fn func(i, slot int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, slot)
			}
		}(s)
	}
	wg.Wait()
	return time.Since(start)
}

// measuredPass runs pass k and records the process's CPU time and heap
// allocation over it. The pass starts settled (see settle), outside its
// timing, so each pass starts from the same heap and resident set.
func measuredPass(b *simBench, k int, tr *tracer) (*passResult, error) {
	if err := settle(); err != nil {
		return nil, err
	}
	alloc0 := totalAlloc()
	cpu0, faults0 := cpuTime()
	pr, err := b.pass(k, tr)
	if err != nil {
		return nil, err
	}
	cpu1, faults1 := cpuTime()
	pr.cpu, pr.faults = cpu1-cpu0, faults1-faults0
	pr.alloc = totalAlloc() - alloc0
	pr.cpu -= pr.ref.cpu
	return pr, nil
}

// outcome collects the checks and failures of an invocation.
type outcome struct {
	attempted, failed int
	checks            []string
}

// absorb folds a pass into the outcome.
func (o *outcome) absorb(label string, p *passResult) {
	o.attempted += p.runs
	o.failed += p.failed
	for _, c := range p.checks {
		o.checks = append(o.checks, label+": "+c)
	}
}

func digestOf(p *passResult) string {
	h := sha256.New()
	for _, l := range p.digestLines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// runBench drives one invocation: set-up, warm-up, then either the
// set-up timing and the timed passes (end-to-end metrics) or the traced
// passes (per-layer metrics), and prints the result.
func runBench(c *config, def workloadDef, out io.Writer) error {
	fmt.Fprintln(out, c.env)
	fmt.Fprintf(out, "workload=%s seed=%d trace=%v slots=%d smoke=%v\n", def.name, c.seed, c.trace, c.slots, c.smoke)
	fmt.Fprintf(out, "why: %s\n", def.why)

	b, err := def.prepare(c)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	warmMin := warmupMin
	if c.smoke {
		warmMin = 0
	}
	for start := time.Now(); ; {
		if err := b.warmup(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if time.Since(start) >= warmMin {
			break
		}
	}
	if c.trace {
		return runTraced(c, b, out)
	}
	// Timed after warm-up, so the set-up processes run on a busy vCPU.
	setupRef := newRefClock(1)
	setups, err := measureSetups(c, setupRef)
	if err != nil {
		return err
	}
	return runTimed(c, b, setups, setupRef.totals().speed(), out)
}

// runTimed runs the timed passes and reports the end-to-end metrics. Each
// timing is scaled by the host speed its pass's reference chunks measured
// (hostspeed.go): a time t read at speed s reports as t·s, a rate r as r/s.
func runTimed(c *config, b *simBench, setups []float64, setupSpeed float64, out io.Writer) error {
	var passes []*passResult
	var res outcome
	start := time.Now()
	var last time.Duration
	for c.another(len(passes), 2, time.Since(start), last) {
		t0 := time.Now()
		p, err := measuredPass(b, len(passes), nil)
		if err != nil {
			return err
		}
		b.replay(len(passes), p)
		last = time.Since(t0)
		passes = append(passes, p)
		res.absorb(fmt.Sprintf("pass %d", len(passes)), p)
		fmt.Fprintf(out, "pass %d: %d runs in %.3fs = %.4g runs/s, cpu %.3fs, alloc %.1f MB, peak rss %.1f MB, %d page faults, host speed %.4f\n", len(passes),
			p.runs, p.wall.Seconds(), p.runsPerSec(), p.cpu.Seconds(), float64(p.alloc)/(1<<20), p.peak, p.faults, p.ref.speed())
	}

	var rps, all, rawRps, rawAll, peaks, speeds []float64
	var cpu, rawCPU float64
	var alloc uint64
	runs := 0
	for _, p := range passes {
		s := p.ref.speed()
		speeds = append(speeds, s)
		rps = append(rps, p.runsPerSec()/s)
		rawRps = append(rawRps, p.runsPerSec())
		for _, ms := range millis(p.durs) {
			all = append(all, ms*s)
			rawAll = append(rawAll, ms)
		}
		peaks = append(peaks, p.peak)
		cpu += p.cpu.Seconds() * s
		rawCPU += p.cpu.Seconds()
		alloc += p.alloc
		runs += p.runs
	}
	q1, q2, q3 := quartiles(rps)
	ms := metricSet{
		"runs_per_s":       q2,
		"run_ms_p50":       quantile(all, 0.5),
		"run_ms_p90":       quantile(all, 0.9),
		"cpu_s_per_run":    ratio(cpu, float64(runs)),
		"alloc_mb_per_run": ratio(float64(alloc)/(1<<20), float64(runs)),
		"peak_rss_mb":      median(peaks),
		"setup_s":          median(setups) * setupSpeed,
	}
	notes := map[string]string{
		"runs_per_s":    fmt.Sprintf("median of %d passes, q1=%.4g q3=%.4g; as read %.4g at host speed %.3f", len(passes), q1, q3, median(rawRps), median(speeds)),
		"run_ms_p50":    fmt.Sprintf("%d runs pooled; as read %.4g", len(all), quantile(rawAll, 0.5)),
		"run_ms_p90":    fmt.Sprintf("%d runs pooled; as read %.4g", len(all), quantile(rawAll, 0.9)),
		"cpu_s_per_run": fmt.Sprintf("as read %.4g", ratio(rawCPU, float64(runs))),
		"setup_s":       fmt.Sprintf("median of %d fresh-process set-ups; as read %.4g at host speed %.3f", len(setups), median(setups), setupSpeed),
		"peak_rss_mb":   fmt.Sprintf("median of %d passes' peaks, max %.4g", len(peaks), quantile(peaks, 1)),
	}
	return finish(out, passes[0], res, endToEndDecls(), ms, notes)
}

func runTraced(c *config, b *simBench, out io.Writer) error {
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	prof, err := os.Create(filepath.Join(c.traceDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	tr := newTracer()
	traced, res, err := tracedPasses(c, b, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := prof.Close(); err != nil {
		return err
	}

	ms := metricSet{}
	notes := map[string]string{}
	if err := b.layers(tr, ms, notes); err != nil {
		return err
	}
	gz, err := os.ReadFile(filepath.Join(c.traceDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	p, err := parseCPUProfile(gz)
	if err != nil {
		return err
	}
	shares := p.layerShares()
	for _, layer := range []string{"manet", "mobility", "radio", "hello"} {
		ms[layer+".cpu_frac"] = shares[layer]
	}
	ms["runtime.gc_cpu_frac"] = shares["runtime.gc"]
	notes["manet.cpu_frac"] = fmt.Sprintf("%d samples; topology %.3f, other %.3f", len(p.samples), shares["topology"], shares["other"])

	// Every traced run has an untraced twin run next to it on the same slot
	// (passResult.baseline), so the overhead is the ratio of summed run
	// times over the same tasks at the same moments.
	var idle []float64
	var base, tt time.Duration
	for _, p := range traced {
		busy := sumDur(p.durs) + sumDur(p.baseline)
		idle = append(idle, 1-ratio(busy.Seconds(), float64(p.slots)*p.wall.Seconds()))
		base += sumDur(p.baseline)
		tt += sumDur(p.durs)
	}
	ms["experiment.pool_idle_frac"] = median(idle)
	ms["bench.trace_overhead_frac"] = 1 - ratio(base.Seconds(), tt.Seconds())
	notes["bench.trace_overhead_frac"] = fmt.Sprintf("paired runs: %.4gs untraced vs %.4gs traced", base.Seconds(), tt.Seconds())
	if err := tr.write(c.traceDir); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace %s (spans.json, cpu.pprof)\n", c.traceDir)
	return finish(out, traced[0], res, perLayerDecls(), ms, notes)
}

// tracedPasses runs traced passes for as long as c.seconds allows (at
// least one).
func tracedPasses(c *config, b *simBench, tr *tracer) (traced []*passResult, res outcome, err error) {
	start := time.Now()
	var last time.Duration
	for c.another(len(traced), 1, time.Since(start), last) {
		t0 := time.Now()
		p, err := measuredPass(b, len(traced), tr)
		if err != nil {
			return nil, res, err
		}
		last = time.Since(t0)
		traced = append(traced, p)
		res.absorb(fmt.Sprintf("traced pass %d", len(traced)), p)
	}
	return traced, res, nil
}

// finish prints the digest, the checks and the metrics, ending with the
// JSON result line.
func finish(out io.Writer, ref *passResult, res outcome, decls []metricDecl, ms metricSet, notes map[string]string) error {
	if err := ms.check(decls); err != nil {
		return err
	}
	fmt.Fprintf(out, "digest %s\n", digestOf(ref))
	sort.Strings(res.checks)
	for _, c := range res.checks {
		fmt.Fprintf(out, "check FAIL %s\n", c)
	}
	if len(res.checks) == 0 {
		fmt.Fprintln(out, "check ok: every oracle passed")
	}
	return writeMetrics(out, decls, ms, notes, res.failed == 0 && len(res.checks) == 0, res.attempted, res.failed)
}
