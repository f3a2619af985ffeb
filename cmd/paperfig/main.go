// Command paperfig regenerates the tables and figures of the paper's
// evaluation section (Wu & Dai, §5): Table 1 and Figures 6–10.
//
// Examples:
//
//	paperfig -exp table1
//	paperfig -exp fig7 -reps 20 -duration 100   # paper scale
//	paperfig -exp all -quick                    # fast pass over everything
//
// Long sweeps can be journaled, interrupted and resumed through a result
// store (see internal/sweep and cmd/sweepctl):
//
//	paperfig -exp all -store runs/           # journal every completed run
//	^C                                       # graceful drain, exit 130
//	paperfig -exp all -store runs/ -resume   # skip journaled runs, finish
//
// To spread a sweep over machines, let a sweepd coordinator hand out the
// work (see cmd/sweepd):
//
//	sweepd -exp fig7 -store runs/ &
//	paperfig -worker http://127.0.0.1:7070  # on every spare machine
//	paperfig -exp fig7 -store runs/ -resume # render, zero recomputation
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/fleet"
	"mstc/internal/profiling"
	"mstc/internal/sweep"
)

func main() { os.Exit(run()) }

// run is the whole command; it returns the process exit status instead of
// exiting, so that its deferred profile writes run on every path.
func run() (code int) {
	log.SetFlags(0)
	log.SetPrefix("paperfig: ")

	var (
		exp       = flag.String("exp", "all", "experiment: "+experiment.Usage())
		reps      = flag.Int("reps", 0, "repetitions per configuration (default: paper's 20, or 3 with -quick)")
		duration  = flag.Float64("duration", 0, "simulated seconds per run (default: paper's 100, or 20 with -quick)")
		quick     = flag.Bool("quick", false, "scaled-down options for a fast pass")
		seed      = flag.Uint64("seed", 2004, "root seed")
		workers   = flag.Int("workers", 0, "parallel runs (default GOMAXPROCS)")
		domains   = flag.Int("domains", 0, "per-run region-parallel engine: domains x domains spatial grid (0 = serial)")
		engWork   = flag.Int("engine-workers", 0, "per-run worker goroutines for -domains (results are bit-identical to serial)")
		datDir    = flag.String("dat", "", "also write gnuplot-ready .dat/.txt files into this directory")
		timing    = flag.Bool("timing", false, "report wall-clock duration per experiment on stderr")
		storeDir  = flag.String("store", "", "journal completed runs into this result store directory (see sweepctl)")
		resume    = flag.Bool("resume", false, "reuse runs already journaled in -store instead of refusing a non-empty store")
		maxRuns   = flag.Int("maxruns", 0, "stop gracefully after computing this many runs (0 = unlimited); exits 130 like an interrupt")
		retries   = flag.Int("retries", 1, "extra attempts for a run that panics before journaling it as failed")
		workerURL = flag.String("worker", "", "run as a sweep-fleet worker for this coordinator URL (see cmd/sweepd); most other flags are ignored")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Worker mode: the coordinator supplies the options and the task set,
	// so everything but the engine knobs is ignored.
	if *workerURL != "" {
		host, err := os.Hostname()
		if err != nil {
			host = "paperfig"
		}
		w := &fleet.Worker{
			URL:           *workerURL,
			Name:          fmt.Sprintf("%s-%d", host, os.Getpid()),
			Sleep:         time.Sleep, //lint:ignore no-wallclock idle backoff between lease polls; pacing only, never reaches results
			Logf:          log.Printf,
			Domains:       *domains,
			EngineWorkers: *engWork,
		}
		if err := w.Run(); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}

	// Resolve -exp against the registry up front: a typo must not start a
	// multi-hour sweep of everything else first.
	selected, err := experiment.Lookup(*exp)
	if err != nil {
		log.Print(err)
		return 2
	}

	// Profiles go to their own files; stdout stays byte-identical whether
	// or not profiling is enabled.
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			log.Print(err)
			code = 1
		}
	}()
	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer stopCPU()

	// Figure output (stdout and -dat files) must be byte-identical across
	// regenerations with the same seed, so no wall-clock value may reach
	// it. Timing is an opt-in progress report on stderr only, read through
	// this injected clock: nil means "don't measure at all", which also
	// keeps the determinism contract grep-ably explicit.
	var clock func() time.Time
	if *timing {
		clock = time.Now //lint:ignore no-wallclock opt-in stderr progress timing; never reaches figure output
	}

	o := experiment.DefaultOptions()
	if *quick {
		o = experiment.QuickOptions()
	}
	// 0 keeps the default; any other value, invalid ones included, is
	// copied for Options.Validate to judge.
	if *reps != 0 {
		o.Reps = *reps
	}
	if *duration != 0 { //lint:ignore float-eq zero value is the unset sentinel, exact by construction
		o.Duration = *duration
	}
	o.Seed = *seed
	o.Workers = *workers
	o.Domains = *domains
	o.EngineWorkers = *engWork
	o.Retry = *retries

	// Judge the options before the store is opened: a rejected sweep
	// leaves no directory behind.
	if err := o.Validate(); err != nil {
		log.Print(err)
		return 1
	}
	if *resume && *storeDir == "" {
		log.Print("-resume requires -store")
		return 1
	}
	if *storeDir != "" {
		st, err := sweep.Open(*storeDir)
		if err != nil {
			log.Print(err)
			return 1
		}
		// Trusting prior records is an explicit opt-in: a non-empty store
		// may hold runs from different options or an older binary, and
		// silently reusing them would be the one way this subsystem could
		// corrupt a figure. (Mismatched options are already fingerprint
		// misses; the gate is for operator intent.)
		if n, err := st.Count(); err != nil {
			log.Print(err)
			return 1
		} else if n > 0 && !*resume {
			log.Printf("store %s already holds %d runs; pass -resume to reuse them or choose a fresh directory", *storeDir, n)
			return 1
		}
		o.Store = st
	}

	// Graceful interrupt: the first SIGINT/SIGTERM stops dispatching new
	// runs; in-flight runs finish and are journaled, then the process
	// exits 130. A second signal aborts immediately.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() { //lint:ignore no-naked-goroutine signal watcher: only sets an atomic drain flag polled by the worker pool
		<-sigc
		interrupted.Store(true)
		log.Print("interrupt: draining in-flight runs (^C again to abort)")
		<-sigc
		os.Exit(130)
	}()

	// The run cap and the signal share the executor's interrupt hook; the
	// computed counter spans every Execute of this invocation.
	var computed atomic.Int64
	o.Interrupt = func() bool {
		return interrupted.Load() || (*maxRuns > 0 && computed.Load() >= int64(*maxRuns))
	}
	o.Progress = progressReporter(&computed, *storeDir != "")

	if *datDir != "" {
		if err := os.MkdirAll(*datDir, 0o755); err != nil {
			log.Print(err)
			return 1
		}
	}
	save := func(name, content string) error {
		if *datDir == "" {
			return nil
		}
		return os.WriteFile(filepath.Join(*datDir, name), []byte(content), 0o644)
	}

	for _, e := range selected {
		var start time.Time
		if clock != nil {
			start = clock()
		}
		outs, err := e.Render(o)
		switch {
		case errors.Is(err, sweep.ErrInterrupted):
			log.Printf("%s: %v", e.Name, err)
			return 130
		case err != nil:
			log.Printf("%s: %v", e.Name, err)
			return 1
		}
		for _, out := range outs {
			fmt.Println(out.Text)
			if err := save(out.File, out.Dat); err != nil {
				log.Print(err)
				return 1
			}
		}
		if clock != nil {
			// log prints to stderr, keeping stdout reproducible.
			log.Printf("[%s done in %v]", e.Name, clock().Sub(start).Round(time.Millisecond))
		}
	}
	if interrupted.Load() || (*maxRuns > 0 && computed.Load() >= int64(*maxRuns)) {
		return 130
	}
	return 0
}

// progressReporter returns the executor's Progress hook: it counts
// computed runs (the -maxruns budget) and, when a store is active,
// reports done/total, throughput, and ETA on stderr at most every two
// seconds. It is called from worker goroutines and locks accordingly.
func progressReporter(computed *atomic.Int64, report bool) func(done, total int) {
	if !report {
		return func(done, total int) { computed.Add(1) }
	}
	now := time.Now //lint:ignore no-wallclock stderr progress reporting only; never reaches figure output
	var mu sync.Mutex
	last, lastDone := now(), 0
	return func(done, total int) {
		computed.Add(1)
		mu.Lock()
		defer mu.Unlock()
		if done < lastDone {
			lastDone = 0 // a new Execute (new figure) restarted the count
		}
		t := now()
		if t.Sub(last) < 2*time.Second {
			return
		}
		// Windowed throughput: robust across the several Execute calls a
		// multi-figure invocation makes.
		rate := float64(done-lastDone) / t.Sub(last).Seconds()
		last, lastDone = t, done
		if rate <= 0 {
			return
		}
		eta := time.Duration(float64(total-done) / rate * float64(time.Second)).Round(time.Second)
		log.Printf("progress: %d/%d runs (%.0f%%), %.1f runs/s, ETA %v",
			done, total, 100*float64(done)/float64(total), rate, eta)
	}
}
