// Command mstcbench is the repository's benchmark. It drives the public
// APIs of the experiment, manet, mobility, topology, radio and hello
// packages over three workloads, checks the results against oracles that
// hold for any seed, and prints every metric by name with its unit, ending
// with one JSON result line.
//
// Run it from the repository root through bench/run.sh, which builds it
// into .bench_build/:
//
//	bash bench/run.sh --workload fig6-flood --seed 2004 --seconds 30 --trace 0
//	bash bench/run.sh --workload large-n --trace 1        # per-layer metrics
//	bash bench/run.sh compare parent/ change/             # noise-aware verdicts
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// every task traced and untraced, writes spans.json and cpu.pprof to
// -trace-dir, and reports the per-layer metrics. See bench/README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mstc/internal/experiment"
)

// Workload sizes: the runs of one pass, which takes 2–9 s on a 2-core
// host, so a 30 s run takes the median over 3–12 passes, each over a fresh
// batch of repetitions (see simBench).
const (
	fig6Reps        = 10 // 4 protocols × 3 speeds × 10 = 120 runs
	consistencyReps = 3  // 2 protocols × 3 speeds × 5 mechanisms × 3 = 90 runs

	// large-n: paper density (100 nodes per 900 m square) at n = 1000.
	largeN        = 1000
	largeArena    = 2846
	largeDuration = 5  // s simulated
	largePairs    = 8  // (model, seed) pairs, each run at Domains 2 and 4
	largeSpeed    = 40 // m/s
)

func workloads() []workloadDef {
	return []workloadDef{
		{
			name:    "fig6-flood",
			why:     "The paper's own unit of work: quick fig6 runs on the serial engine, mostly topology selection and radio queries; the selection cache never hits here.",
			prepare: prepareTaskSet("fig6", fig6Reps),
		},
		{
			name:    "consistency-mech",
			why:     "The same layers used differently: view sync and proactive re-select on forwards, weak-k reads history, reactive reads by version; the selection cache hits here.",
			prepare: prepareTaskSet("consistency", consistencyReps),
		},
		{
			name:    "large-n",
			why:     "Region-parallel engine at n=1000, memory- and barrier-bound: n-squared hello tables and domain barriers, each run on 2x2 and 4x4 domain grids.",
			prepare: prepareLargeN,
		},
	}
}

// prepareTaskSet builds a pool workload over a named experiment task set
// at quick options.
func prepareTaskSet(set string, reps int) func(c *config) (*simBench, error) {
	return func(c *config) (*simBench, error) {
		if err := c.env.limit("run goroutines", c.slots); err != nil {
			return nil, err
		}
		o := experiment.QuickOptions()
		o.Seed = c.seed
		o.Reps = reps
		if c.smoke {
			o.Reps, o.Duration = 1, 3
		}
		tasks, err := experiment.TaskSet(set, o)
		if err != nil {
			return nil, err
		}
		return newSimBench(c, o, tasks, o.Reps), nil
	}
}

func prepareLargeN(c *config) (*simBench, error) {
	if err := c.env.limit("engine workers", c.slots); err != nil {
		return nil, err
	}
	o := experiment.QuickOptions()
	o.Seed = c.seed
	o.N, o.ArenaSide, o.Duration = largeN, largeArena, largeDuration
	o.EngineWorkers = c.slots
	pairs := largePairs
	if c.smoke {
		o.N, o.ArenaSide, o.Duration, pairs = 200, 1273, 3, 2
	}
	b := newSimBench(c, o, nil, pairs)
	b.sequential, b.pairs = true, true
	for rep := 0; rep < pairs; rep++ {
		r := experiment.Run{Protocol: "RNG", Speed: largeSpeed, Rep: rep}
		for _, d := range []int{2, 4} {
			od := o
			od.Domains = d
			b.tasks = append(b.tasks, r)
			b.taskOpts = append(b.taskOpts, od)
		}
	}
	return b, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mstcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 2004, "root seed (experiment.Options.Seed)")
	seconds := fs.Float64("seconds", 30, "timed measurement length; passes run until it is reached, give or take half a pass (at least 2)")
	passes := fs.Int("passes", 0, "exact number of timed passes (overrides -seconds)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans.json and cpu.pprof")
	traceDir := fs.String("trace-dir", "", "where a traced run writes spans.json and cpu.pprof (default <workdir>/trace/<workload>)")
	workdir := fs.String("workdir", ".bench_build/work", "directory for scratch files and traces")
	smoke := fs.Bool("smoke", false, "tiny inputs (for tests)")
	setupOnly := fs.Bool("setup-only", false, "build the workload's inputs and exit (how setup_s is timed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for _, w := range workloads() {
		if w.name == *workload {
			w := w
			def = &w
		}
	}
	switch {
	case def == nil:
		fmt.Fprintf(stderr, "mstcbench: unknown -workload %q (valid: %s)\n", *workload, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "mstcbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds <= 0 || *passes < 0:
		fmt.Fprintln(stderr, "mstcbench: -seconds must be positive and -passes non-negative")
		return 2
	}
	c := &config{
		workload: def.name,
		seed:     *seed,
		seconds:  *seconds,
		passes:   *passes,
		trace:    *trace == 1,
		traceDir: *traceDir,
		workdir:  filepath.Join(*workdir, def.name),
		smoke:    *smoke,
	}
	if c.traceDir == "" {
		c.traceDir = filepath.Join(*workdir, "trace", def.name)
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "mstcbench:", err)
		return 1
	}
	c.env = readHostEnv(c.workdir)
	c.slots = c.env.NProc
	var err error
	if *setupOnly {
		_, err = def.prepare(c)
	} else {
		err = runBench(c, *def, stdout)
	}
	// Scratch only; a leftover costs nothing but disk under the workdir.
	_ = os.RemoveAll(c.workdir)
	if err != nil {
		fmt.Fprintln(stderr, "mstcbench:", err)
		return 1
	}
	return 0
}
