package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDecl declares one metric. The end-to-end and per-layer tables below
// are the single source of the metric set: BENCHMARK.json mirrors them
// (TestBenchmarkJSONMatchesDecls pins that) and a run prints exactly the
// metrics of one table (TestSmokeEmitsDeclaredSet).
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEndDecls are the metrics a user of the simulator sees. Timings are
// scaled to the host's usual speed (hostspeed.go). The timing bounds are
// as wide as BENCHMARK.json accepts because, on the 2-vCPU host the
// benchmark was built on, the scaled timings still spread by up to 10 %
// over ten seeds (see README.md, "Host speed"); allocation is
// deterministic to within 1 %.
func endToEndDecls() []metricDecl {
	return []metricDecl{
		{Name: "runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.25},
		{Name: "run_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "run_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "cpu_s_per_run", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "alloc_mb_per_run", Unit: "MB", Better: "lower", Bound: 0.03},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}
}

// perLayerDecls are the traced run's metrics. Which end-to-end metric each
// should move, on which workload, is tabled in README.md.
func perLayerDecls() []metricDecl {
	return []metricDecl{
		{Name: "topology.busy_frac", Unit: "frac", Better: "lower"},
		{Name: "topology.busy_frac.MST", Unit: "frac", Better: "lower"},
		{Name: "topology.busy_frac.RNG", Unit: "frac", Better: "lower"},
		{Name: "topology.busy_frac.SPT-2", Unit: "frac", Better: "lower"},
		{Name: "topology.busy_frac.SPT-4", Unit: "frac", Better: "lower"},
		{Name: "topology.select_us_p50", Unit: "us", Better: "lower"},
		{Name: "topology.select_us_p90", Unit: "us", Better: "lower"},
		{Name: "topology.view_nbrs_mean", Unit: "count", Better: "lower"},
		{Name: "topology.calls_per_run", Unit: "count", Better: "lower"},
		{Name: "topology.calls_per_hello", Unit: "ratio", Better: "lower"},
		{Name: "manet.selcache_hit_frac", Unit: "frac", Better: "higher"},
		{Name: "manet.new_network_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "manet.run_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "manet.cpu_frac", Unit: "frac", Better: "lower"},
		{Name: "manet.grid2_run_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "manet.grid4_run_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "manet.grid_swing", Unit: "ratio", Better: "lower"},
		{Name: "mobility.build_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "mobility.cpu_frac", Unit: "frac", Better: "lower"},
		{Name: "radio.receivers_at_ns", Unit: "ns", Better: "lower"},
		{Name: "radio.receivers_mean", Unit: "count", Better: "lower"},
		{Name: "radio.cpu_frac", Unit: "frac", Better: "lower"},
		{Name: "hello.observe_ns", Unit: "ns", Better: "lower"},
		{Name: "hello.latest_into_ns", Unit: "ns", Better: "lower"},
		{Name: "hello.cpu_frac", Unit: "frac", Better: "lower"},
		{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
		{Name: "experiment.pool_idle_frac", Unit: "frac", Better: "lower"},
		{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	}
}

// metricSet collects one run's metric values by name.
type metricSet map[string]float64

// check returns an error naming any declared metric the run did not
// measure, any measured metric that is not declared, or any value that is
// not a finite number.
func (ms metricSet) check(decls []metricDecl) error {
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		if _, ok := ms[d.Name]; !ok {
			return fmt.Errorf("metric %s declared but not measured", d.Name)
		}
	}
	var extra []string
	for name := range ms {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	for name, v := range ms {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}

// resultLine is the JSON object a run prints as the last line of its
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeMetrics prints one "metric <name> <value> <unit>" line per declared
// metric, in declaration order, and then the JSON result line.
func writeMetrics(w io.Writer, decls []metricDecl, ms metricSet, notes map[string]string, correct bool, attempted, failed int) error {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(decls))}
	for _, d := range decls {
		v := ms[d.Name]
		note := ""
		if n, ok := notes[d.Name]; ok {
			note = "  # " + n
		}
		fmt.Fprintf(w, "metric %-30s %14.6g %s%s\n", d.Name, v, d.Unit, note)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
