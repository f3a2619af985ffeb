package experiment

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mstc/internal/channel"
	"mstc/internal/manet"
	"mstc/internal/sweep"
)

// These are the acceptance tests of the sweep-orchestration subsystem:
// an interrupted-then-resumed sweep and a sweep merged from two stores
// must both produce sha256-identical results to the plain single-process path —
// under the ideal channel and under a faulty one — and a cold Execute
// over a warm store must compute nothing.

// sweepTestTasks mixes ideal-channel and faulty-channel runs across
// several configuration groups (6 ideal + 2 faulty groups, 2 reps each).
func sweepTestTasks() []Run {
	lossy := channel.Config{
		Loss:  channel.LossConfig{Rate: 0.2},
		Delay: channel.DelayConfig{Max: 0.05},
	}
	var tasks []Run
	for rep := 0; rep < 2; rep++ {
		for _, p := range []string{"RNG", "MST", "SPT-2"} {
			tasks = append(tasks,
				Run{Protocol: p, Speed: 40, Rep: rep},
				Run{Protocol: p, Speed: 40, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true}, Rep: rep})
		}
		tasks = append(tasks,
			Run{Protocol: "RNG", Speed: 40, Channel: lossy, Rep: rep},
			Run{Protocol: "MST", Speed: 40, Mech: manet.Mechanisms{Buffer: 10}, Channel: lossy, Rep: rep})
	}
	return tasks
}

func sweepTestOptions() Options {
	o := tinyOptions()
	o.N = 40
	o.Duration = 5
	o.Workers = 4
	return o
}

// directDigest computes the reference digest: the plain store-less path.
func directDigest(t *testing.T, o Options, tasks []Run) string {
	t.Helper()
	results, err := Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return resultsDigest(results)
}

func openStore(t *testing.T) *sweep.Store {
	t.Helper()
	s, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWarmStoreZeroRecomputation: a second Execute over a fully
// populated store must satisfy every task from records — zero computed
// runs — and return bit-identical results.
func TestWarmStoreZeroRecomputation(t *testing.T) {
	o := sweepTestOptions()
	tasks := sweepTestTasks()
	want := directDigest(t, o, tasks)

	st := openStore(t)
	var computed atomic.Int64
	o.Store = st
	o.Progress = func(done, total int) { computed.Add(1) }
	results, err := Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsDigest(results); got != want {
		t.Errorf("cold store-backed digest = %s, want %s", got, want)
	}
	if int(computed.Load()) != len(tasks) {
		t.Errorf("cold run computed %d runs, want %d", computed.Load(), len(tasks))
	}

	computed.Store(0)
	results, err = Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsDigest(results); got != want {
		t.Errorf("warm store-backed digest = %s, want %s", got, want)
	}
	if computed.Load() != 0 {
		t.Errorf("warm run recomputed %d runs, want 0", computed.Load())
	}
}

// TestInterruptResumeBitIdentical interrupts a sweep after a few runs
// (graceful drain → sweep.ErrInterrupted, completions journaled), then
// resumes into the same store and requires the final results to be
// sha256-identical to an uninterrupted single-process sweep.
func TestInterruptResumeBitIdentical(t *testing.T) {
	o := sweepTestOptions()
	tasks := sweepTestTasks()
	want := directDigest(t, o, tasks)

	st := openStore(t)
	var computed atomic.Int64
	interrupted := o
	interrupted.Store = st
	interrupted.Workers = 1 // deterministic drain point for the assertion below
	interrupted.Progress = func(done, total int) { computed.Add(1) }
	interrupted.Interrupt = func() bool { return computed.Load() >= 3 }
	if _, err := Execute(interrupted, tasks); !errors.Is(err, sweep.ErrInterrupted) {
		t.Fatalf("interrupted Execute error = %v, want sweep.ErrInterrupted", err)
	}
	if got := computed.Load(); got != 3 {
		t.Fatalf("interrupted run computed %d runs, want 3", got)
	}
	if cp, ok, err := st.ReadCheckpoint(); !ok || err != nil || !cp.Interrupted {
		t.Errorf("drain did not flush an interrupted checkpoint (got %+v, %v, %v)", cp, ok, err)
	}

	resumed := o
	resumed.Store = st
	var recomputed atomic.Int64
	resumed.Progress = func(done, total int) { recomputed.Add(1) }
	results, err := Execute(resumed, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsDigest(results); got != want {
		t.Errorf("resumed digest = %s, want %s (uninterrupted single-process)", got, want)
	}
	if got := int(recomputed.Load()); got != len(tasks)-3 {
		t.Errorf("resume recomputed %d runs, want %d (journaled runs must be skipped)", got, len(tasks)-3)
	}
}

// TestMergeBitIdentical computes two disjoint halves of the sweep into
// two separate stores, merges them, and requires the merged store to
// render sha256-identical results with zero recomputation.
func TestMergeBitIdentical(t *testing.T) {
	o := sweepTestOptions()
	tasks := sweepTestTasks()
	want := directDigest(t, o, tasks)

	merged := openStore(t)
	half := len(tasks) / 2
	for i, part := range [][]Run{tasks[:half], tasks[half:]} {
		st := openStore(t)
		so := o
		so.Store = st
		if _, err := Execute(so, part); err != nil {
			t.Fatalf("half %d: %v", i, err)
		}
		if _, err := sweep.Merge(merged, st); err != nil {
			t.Fatalf("merge half %d: %v", i, err)
		}
	}

	mo := o
	mo.Store = merged
	var computed atomic.Int64
	mo.Progress = func(done, total int) { computed.Add(1) }
	results, err := Execute(mo, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsDigest(results); got != want {
		t.Errorf("merged digest = %s, want %s (single-process)", got, want)
	}
	if computed.Load() != 0 {
		t.Errorf("merged store recomputed %d runs, want 0", computed.Load())
	}
}

// TestFingerprintSensitivity pins the fingerprint's field selection:
// result-affecting options must change it, proven-invariant knobs must
// not (their records are intentionally shared).
func TestFingerprintSensitivity(t *testing.T) {
	base := sweepTestOptions()
	fp := base.Fingerprint()

	changing := map[string]func(*Options){
		"N":             func(o *Options) { o.N = 41 },
		"ArenaSide":     func(o *Options) { o.ArenaSide = 800 },
		"NormalRange":   func(o *Options) { o.NormalRange = 200 },
		"Duration":      func(o *Options) { o.Duration = 6 },
		"FloodRate":     func(o *Options) { o.FloodRate = 5 },
		"Seed":          func(o *Options) { o.Seed = 2005 },
		"Channel.Loss":  func(o *Options) { o.Channel.Loss.Rate = 0.1 },
		"SnapshotEvery": func(o *Options) { o.SnapshotEvery = 0.5 },
	}
	//lint:order-independent
	for name, mutate := range changing {
		o := base
		mutate(&o)
		if o.Fingerprint() == fp {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}

	invariant := map[string]func(*Options){
		"Workers":          func(o *Options) { o.Workers = 1 },
		"Reps":             func(o *Options) { o.Reps = 50 },
		"Speeds":           func(o *Options) { o.Speeds = []float64{1} },
		"Buffers":          func(o *Options) { o.Buffers = nil },
		"Radio.Slack":      func(o *Options) { o.Radio.Slack = -1 },
		"NoSelectionCache": func(o *Options) { o.NoSelectionCache = true },
		"Domains":          func(o *Options) { o.Domains = 2 },
		"EngineWorkers": func(o *Options) {
			o.Domains = 2
			o.EngineWorkers = 4
		},
		"Retry": func(o *Options) { o.Retry = 5 },
	}
	//lint:order-independent
	for name, mutate := range invariant {
		o := base
		mutate(&o)
		if o.Fingerprint() != fp {
			t.Errorf("changing %s changed the fingerprint; records would needlessly miss", name)
		}
	}
}

// TestRecoverRunRetriesPanicsOnly pins the retry budget semantics:
// panics retry up to the budget and surface as errors with the panic
// message; deterministic errors never retry.
func TestRecoverRunRetriesPanicsOnly(t *testing.T) {
	calls := 0
	_, attempts, err := recoverRun(2, func() (manet.Result, error) {
		calls++
		panic("boom")
	})
	if calls != 3 || attempts != 3 {
		t.Errorf("panicking run: %d calls, %d attempts, want 3 and 3", calls, attempts)
	}
	if err == nil {
		t.Fatal("panicking run returned nil error")
	}

	calls = 0
	_, attempts, err = recoverRun(2, func() (manet.Result, error) {
		calls++
		return manet.Result{}, fmt.Errorf("unknown protocol")
	})
	if calls != 1 || attempts != 1 {
		t.Errorf("erroring run: %d calls, %d attempts, want 1 and 1 (no retry)", calls, attempts)
	}
	if err == nil {
		t.Fatal("erroring run returned nil error")
	}

	succeedAt := 2
	calls = 0
	res, attempts, err := recoverRun(2, func() (manet.Result, error) {
		calls++
		if calls < succeedAt {
			panic("transient")
		}
		return manet.Result{Floods: 7}, nil
	})
	if err != nil || attempts != 2 || res.Floods != 7 {
		t.Errorf("recovering run = %+v, attempts %d, err %v; want success on attempt 2", res, attempts, err)
	}
}

// TestExecuteJournalsFailures: a run that cannot execute (unknown
// protocol) fails the Execute, but leaves a failure record in the store
// for diagnosis — and never a result record.
func TestExecuteJournalsFailures(t *testing.T) {
	o := sweepTestOptions()
	st := openStore(t)
	o.Store = st
	tasks := []Run{{Protocol: "NOPE", Speed: 40}}
	if _, err := Execute(o, tasks); err == nil {
		t.Fatal("unknown protocol executed without error")
	}
	failed := 0
	if err := st.Scan(func(info sweep.RecordInfo) error {
		if info.Err != nil {
			t.Errorf("store holds a corrupt record: %v", info.Err)
		}
		if info.Failed {
			failed++
		} else {
			t.Errorf("failing run left a result record: %+v", info.Record)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Errorf("store holds %d failure records, want 1", failed)
	}
}
