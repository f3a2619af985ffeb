package experiment

import (
	"fmt"

	"mstc/internal/manet"
	"mstc/internal/sweep"
)

// This file is the experiment-side surface the sweep fleet
// (internal/fleet, cmd/sweepd, paperfig -worker) builds on: each registry
// entry's complete run set by name (TaskSet), and an exported single-run
// compute path with the executor's panic-recovery/bounded-retry policy.
// The daemon enumerates tasks and journals results; the workers compute
// individual runs. Both stay behind the same Options / Run / sweep.Key
// vocabulary the in-process executor uses, so a fleet-computed store is
// indistinguishable from a single-process one.

// Desc returns the canonical run descriptor stored inside the run's
// record (and verified by Store.Get against hash collisions).
func (r Run) Desc() string { return r.desc() }

// StoreKey addresses the run's record under the given options
// fingerprint.
func (r Run) StoreKey(fingerprint string) sweep.Key { return r.storeKey(fingerprint) }

// ConfigKey returns the run's configuration substream key — the label
// shared by all repetitions of one (protocol, speed, mechanisms,
// channel) configuration, from which each rep's store address and
// simulation seed derive. It lets code outside this package rebuild a
// run's seed exactly as the executor does.
func (r Run) ConfigKey() uint64 { return r.key() }

// ComputeRun executes one task with no retry policy. It is the unit of
// work a fleet worker performs; determinism guarantees the result is
// bit-identical to the same task computed by the in-process executor.
func ComputeRun(o Options, r Run) (manet.Result, error) {
	return executeOne(o, r)
}

// ComputeRunRetry wraps ComputeRun in the executor's recovery policy:
// panics become errors and are retried up to `retries` extra times;
// deterministic configuration errors never retry. attempts reports how
// many executions happened (1 = first try), matching the Attempts field
// the store journals.
func ComputeRunRetry(o Options, r Run, retries int) (res manet.Result, attempts int, err error) {
	return recoverRun(retries, func() (manet.Result, error) {
		return executeOne(o, r)
	})
}

// crossTasks enumerates protocols × speeds × mechs × reps, protocol-major:
// the order aggregates and the figures read.
func crossTasks(protocols []string, speeds []float64, mechs []manet.Mechanisms, reps int) []Run {
	var tasks []Run
	for _, p := range protocols {
		for _, s := range speeds {
			for _, m := range mechs {
				for rep := 0; rep < reps; rep++ {
					tasks = append(tasks, Run{Protocol: p, Speed: s, Mech: m, Rep: rep})
				}
			}
		}
	}
	return tasks
}

// bufferMechs returns one Mechanisms per buffer width, optionally
// crossed with a second variant per buffer (Figs. 9/10 pair each width
// with a mechanism toggle).
func bufferMechs(buffers []float64, variant func(manet.Mechanisms) manet.Mechanisms) []manet.Mechanisms {
	var mechs []manet.Mechanisms
	for _, b := range buffers {
		base := manet.Mechanisms{Buffer: b}
		mechs = append(mechs, base)
		if variant != nil {
			mechs = append(mechs, variant(base))
		}
	}
	return mechs
}

// TaskSetNames lists the names TaskSet accepts: every registry entry with
// a task set, in presentation order, then "all".
func TaskSetNames() []string {
	var names []string
	for _, e := range Experiments() {
		if e.Tasks != nil {
			names = append(names, e.Name)
		}
	}
	return append(names, "all")
}

// TaskSet enumerates the complete run set of the store-backed experiment
// that Lookup resolves name to. "all" is the union of the InAll entries'
// sets in presentation order, with duplicate (configuration, rep) pairs
// removed — figures share operating points (e.g. every plain-buffer
// configuration appears in Figs. 7, 9, and 10), and the store holds one
// record per run either way, so the union never computes a shared point
// twice.
func TaskSet(name string, o Options) ([]Run, error) {
	exps, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	var union []Run
	seen := make(map[sweep.Key]bool)
	for _, e := range exps {
		if e.Tasks == nil {
			return nil, fmt.Errorf("experiment: %s has no task set: its parts run under changed options", e.Name)
		}
		for _, r := range e.Tasks(o) {
			k := sweep.Key{Run: r.key(), Rep: r.Rep}
			if !seen[k] {
				seen[k] = true
				union = append(union, r)
			}
		}
	}
	return union, nil
}
