package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mstc/internal/manet"
)

// resultsDigest serializes results field-by-field and hashes them, so any
// future nondeterminism — a reordered worker write, a map-order leak, a
// wall-clock read — changes the digest and fails loudly instead of drifting
// a statistic by a fraction of a percent.
func resultsDigest(results []manet.Result) string {
	h := sha256.New()
	for i, r := range results {
		fmt.Fprintf(h, "%d|%#v\n", i, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeterminismRegression runs the same small scenario sequentially and
// on the worker pool and asserts the serialized results are byte-identical.
// This is the executable form of DESIGN.md's determinism contract: results
// depend only on (seed, task), never on scheduling.
func TestDeterminismRegression(t *testing.T) {
	o := tinyOptions()
	o.N = 40
	o.Duration = 5
	var tasks []Run
	for _, p := range []string{"RNG", "MST", "SPT-2"} {
		for rep := 0; rep < 2; rep++ {
			tasks = append(tasks, Run{Protocol: p, Speed: 40, Rep: rep})
			tasks = append(tasks, Run{Protocol: p, Speed: 40, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true}, Rep: rep})
		}
	}

	digests := make(map[string]string)
	for _, workers := range []int{1, 8} {
		o.Workers = workers
		results, err := Execute(o, tasks)
		if err != nil {
			t.Fatal(err)
		}
		digests[fmt.Sprintf("workers=%d", workers)] = resultsDigest(results)
	}
	// A second pool run guards against scheduling-dependent flakiness that
	// a single lucky interleaving could hide.
	o.Workers = 8
	results, err := Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	digests["workers=8 rerun"] = resultsDigest(results)

	want := digests["workers=1"]
	for name, got := range digests {
		if got != want {
			t.Errorf("%s digest = %s, want %s (sequential): worker-pool execution is nondeterministic", name, got, want)
		}
	}
}

// TestFigureOutputDeterministic renders one figure twice and asserts the
// byte output (what cmd/paperfig writes to stdout and -dat files) is
// identical — the property regenerated paper figures rely on.
func TestFigureOutputDeterministic(t *testing.T) {
	o := tinyOptions()
	o.N = 40
	o.Duration = 5
	o.Speeds = []float64{40}
	render := func(workers int) string {
		o.Workers = workers
		out := render(t, "fig6", o)[0]
		return out.Text + "\n" + out.Dat
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("rendered figure differs between sequential and pooled runs:\n--- workers=1\n%s\n--- workers=8\n%s", seq, par)
	}
}

// TestDigestUnchangedByStalenessCache pins the radio medium's
// bounded-staleness contract at the whole-experiment level: running the
// same tasks with the spatial-grid cache enabled (default slack, and an
// oversized one) and disabled (negative slack: exact-instant rebuilds)
// must produce sha256-identical results. The cache may only trade grid
// rebuilds against candidate filtering — never receiver sets, never
// randomness consumption, never a single metric bit.
func TestDigestUnchangedByStalenessCache(t *testing.T) {
	o := tinyOptions()
	o.N = 40
	o.Duration = 8
	var tasks []Run
	for _, speed := range []float64{1, 160} {
		for rep := 0; rep < 2; rep++ {
			tasks = append(tasks, Run{Protocol: "RNG", Speed: speed, Rep: rep})
			tasks = append(tasks, Run{Protocol: "MST", Speed: speed, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true}, Rep: rep})
		}
	}

	digest := func(slack float64) string {
		o := o
		o.Radio.Slack = slack
		results, err := Execute(o, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return resultsDigest(results)
	}

	want := digest(-1) // staleness disabled: the exact-instant reference
	for _, slack := range []float64{0, 500} {
		if got := digest(slack); got != want {
			t.Errorf("slack %g digest = %s, want %s (exact-instant): the staleness cache changed results", slack, got, want)
		}
	}
}

// TestDigestUnchangedByEngineParallelism is the whole-experiment pin of
// the region-parallel engine's transparency contract (the unit-level proof
// is manet's TestParallelMatchesSerialMatrix): sha256 over every result
// field must be identical between the serial engine and the domain-
// decomposed engine at several worker counts — including configurations
// that fall back to serial. This is what licenses the //manet:hash-exclude
// lines for Options.Domains and Options.EngineWorkers: records computed by
// either engine are interchangeable in the sweep store.
func TestDigestUnchangedByEngineParallelism(t *testing.T) {
	o := tinyOptions()
	o.N = 40
	o.Duration = 8
	var tasks []Run
	for _, speed := range []float64{1, 160} {
		tasks = append(tasks, Run{Protocol: "RNG", Speed: speed})
		tasks = append(tasks, Run{Protocol: "MST", Speed: speed, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true}})
		tasks = append(tasks, Run{Protocol: "MST", Speed: speed, Mech: manet.Mechanisms{Proactive: true}})
		// Weak consistency: multiple beacons per synchronization window must
		// select against their own advertised positions, not the window's last.
		tasks = append(tasks, Run{Protocol: "MST", Speed: speed, Mech: manet.Mechanisms{WeakK: 3}})
		// Reactive rounds run on the parallel engine too (settle barrier
		// passes); its synchronized-beacon schedule stresses the windowing.
		tasks = append(tasks, Run{Protocol: "MST", Speed: speed, Mech: manet.Mechanisms{Reactive: true}})
	}

	digest := func(domains, engineWorkers int) string {
		o := o
		o.Domains = domains
		o.EngineWorkers = engineWorkers
		results, err := Execute(o, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return resultsDigest(results)
	}

	want := digest(0, 0)
	for _, pw := range []struct{ domains, workers int }{{1, 1}, {2, 2}, {3, 4}} {
		if got := digest(pw.domains, pw.workers); got != want {
			t.Errorf("domains=%d workers=%d digest = %s, want serial %s: engine parallelism changed results",
				pw.domains, pw.workers, got, want)
		}
	}
}
