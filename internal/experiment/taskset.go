package experiment

import (
	"fmt"
	"sort"
	"strings"

	"mstc/internal/manet"
	"mstc/internal/sweep"
)

// This file is the experiment-side surface the sweep fleet
// (internal/fleet, cmd/sweepd, paperfig -worker) builds on: a named
// enumeration of each figure's complete run set, and an exported
// single-run compute path with the executor's panic-recovery/bounded-
// retry policy. The daemon enumerates tasks and journals results; the
// workers compute individual runs. Both stay behind the same Options /
// Run / sweep.Key vocabulary the in-process executor uses, so a
// fleet-computed store is indistinguishable from a single-process one.

// Desc returns the canonical run descriptor stored inside the run's
// record (and verified by Store.Get against hash collisions).
func (r Run) Desc() string { return r.desc() }

// StoreKey addresses the run's record under the given options
// fingerprint.
func (r Run) StoreKey(fingerprint string) sweep.Key { return r.storeKey(fingerprint) }

// ConfigKey returns the run's configuration substream key — the label
// shared by all repetitions of one (protocol, speed, mechanisms,
// channel) configuration. The fleet coordinator groups tasks by it for
// the adaptive-replication stopping rule.
func (r Run) ConfigKey() uint64 { return r.key() }

// ConfigDesc is Desc with the repetition index elided: the label of the
// run's configuration group, stable across reps.
func (r Run) ConfigDesc() string {
	base := r
	base.Rep = 0
	return strings.Replace(base.desc(), " rep=0", "", 1)
}

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

// crossTasks enumerates protocols × speeds × mechs × reps in the exact
// nesting order Sweep uses.
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

// taskSets maps every TaskSet name to its enumerator. The enumerations
// mirror the figures' Sweep calls run for run: a store filled from a
// task set renders the corresponding figure with zero recomputation.
func taskSets() map[string]func(o Options) []Run {
	consistencyMechs := func() []manet.Mechanisms {
		const buf = 10
		return []manet.Mechanisms{
			{Buffer: buf},
			{Buffer: buf, ViewSync: true},
			{Buffer: buf, WeakK: 3},
			{Buffer: buf, Proactive: true},
			{Buffer: buf, Reactive: true},
		}
	}
	return map[string]func(o Options) []Run{
		"table1": func(o Options) []Run {
			return crossTasks(BaselineNames(), []float64{1}, []manet.Mechanisms{{}}, o.Reps)
		},
		"fig6": func(o Options) []Run {
			return crossTasks(BaselineNames(), o.Speeds, []manet.Mechanisms{{}}, o.Reps)
		},
		"fig7": func(o Options) []Run {
			var tasks []Run
			for _, p := range BaselineNames() {
				tasks = append(tasks, crossTasks([]string{p}, o.Speeds, bufferMechs(o.Buffers, nil), o.Reps)...)
			}
			return tasks
		},
		"fig8": func(o Options) []Run {
			return crossTasks(BaselineNames(), []float64{40}, bufferMechs(o.Buffers, nil), o.Reps)
		},
		"fig9": func(o Options) []Run {
			var tasks []Run
			for _, p := range BaselineNames() {
				mechs := bufferMechs(o.Buffers, func(m manet.Mechanisms) manet.Mechanisms {
					m.ViewSync = true
					return m
				})
				tasks = append(tasks, crossTasks([]string{p}, o.Speeds, mechs, o.Reps)...)
			}
			return tasks
		},
		"fig10": func(o Options) []Run {
			var tasks []Run
			for _, p := range BaselineNames() {
				mechs := bufferMechs(o.Buffers, func(m manet.Mechanisms) manet.Mechanisms {
					m.PhysicalNeighbors = true
					return m
				})
				tasks = append(tasks, crossTasks([]string{p}, o.Speeds, mechs, o.Reps)...)
			}
			return tasks
		},
		"consistency": func(o Options) []Run {
			var tasks []Run
			for _, p := range []string{"MST", "RNG"} {
				tasks = append(tasks, crossTasks([]string{p}, o.Speeds, consistencyMechs(), o.Reps)...)
			}
			return tasks
		},
		"energy": func(o Options) []Run {
			names := append(BaselineNames(), "none")
			return crossTasks(names, []float64{1}, []manet.Mechanisms{{}}, o.Reps)
		},
		"traffic": func(o Options) []Run {
			return trafficTasks(o)
		},
		"routing": func(o Options) []Run {
			// Mirrors paperfig's routing invocation: FigRouting over GG
			// then RNG.
			var tasks []Run
			for _, p := range []string{"GG", "RNG"} {
				tasks = append(tasks, routingTasks(o, p)...)
			}
			return tasks
		},
	}
}

// TaskSetNames lists the valid TaskSet names, sorted.
func TaskSetNames() []string {
	sets := taskSets()
	names := make([]string, 0, len(sets)+1)
	for name := range sets { //lint:order-independent collected then sorted
		names = append(names, name)
	}
	names = append(names, "all")
	sort.Strings(names)
	return names
}

// TaskSet enumerates the complete run set of the named store-backed
// experiment under the given options. "all" is the union of every named
// set with duplicate (configuration, rep) pairs removed — figures share
// operating points (e.g. every plain-buffer configuration appears in
// Figs. 7, 9, and 10), and the store holds one record per run either
// way, so the union never computes a shared point twice.
func TaskSet(name string, o Options) ([]Run, error) {
	sets := taskSets()
	if name == "all" {
		var union []Run
		seen := make(map[sweep.Key]bool)
		// Deterministic union order: sorted set names, then each set's
		// own enumeration order.
		var names []string
		for n := range sets { //lint:order-independent collected then sorted
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			for _, r := range sets[n](o) {
				k := sweep.Key{Run: r.key(), Rep: r.Rep}
				if seen[k] {
					continue
				}
				seen[k] = true
				union = append(union, r)
			}
		}
		return union, nil
	}
	build, ok := sets[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown task set %q (valid: %s)",
			name, strings.Join(TaskSetNames(), ", "))
	}
	return build(o), nil
}
