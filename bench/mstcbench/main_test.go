package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mstc/internal/experiment"
)

// TestMain lets the test binary stand in for the command when the harness
// re-executes itself to time set-up (see measureSetups).
func TestMain(m *testing.M) {
	if os.Getenv(strings.Split(childEnv, "=")[0]) == "1" {
		os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runSmoke runs one smoke-size invocation and returns its result line.
func runSmoke(t *testing.T, workload, trace string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-smoke", "-passes", "1", "-trace", trace,
		"-workdir", t.TempDir()}
	if code := runMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	return res
}

// TestSmokeEmitsDeclaredSet runs every workload at smoke size, untraced
// and traced, and checks that each run is correct and prints exactly the
// declared metric set with the declared units.
func TestSmokeEmitsDeclaredSet(t *testing.T) {
	for _, w := range workloads() {
		for _, tc := range []struct {
			trace string
			decls []metricDecl
		}{{"0", endToEndDecls()}, {"1", perLayerDecls()}} {
			res := runSmoke(t, w.name, tc.trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", w.name, tc.trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(tc.decls) {
				t.Errorf("%s trace=%s: %d metrics, %d declared", w.name, tc.trace, len(res.Metrics), len(tc.decls))
			}
			for _, d := range tc.decls {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%s: %s not emitted", w.name, tc.trace, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace=%s: %s unit %q, declared %q", w.name, tc.trace, d.Name, m.Unit, d.Unit)
				}
			}
			if tc.trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
			// Exact counts the traced fig6 run reproduces for any seed: no
			// selection-cache hits, one kernel call per hello.
			if w.name == "fig6-flood" && tc.trace == "1" {
				if got := res.Metrics["manet.selcache_hit_frac"].Value; got != 0 {
					t.Errorf("fig6 manet.selcache_hit_frac = %v, want 0", got)
				}
				if got := res.Metrics["topology.calls_per_hello"].Value; got != 1 {
					t.Errorf("fig6 topology.calls_per_hello = %v, want 1", got)
				}
			}
		}
	}
}

// TestBatchesAreTaskSetRepetitions checks that the batches the passes run
// are the task set's own repetitions: batches 0 and 1 at reps R are,
// together, TaskSet at reps 2R, each task exactly once.
func TestBatchesAreTaskSetRepetitions(t *testing.T) {
	const reps = 2
	o := experiment.QuickOptions()
	o.Reps = reps
	tasks, err := experiment.TaskSet("consistency", o)
	if err != nil {
		t.Fatal(err)
	}
	b := newSimBench(&config{}, o, tasks, reps)
	o.Reps = 2 * reps
	want, err := experiment.TaskSet("consistency", o)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, w := range want {
		count[w.Desc()]++
	}
	for k := 0; k < 2; k++ {
		for _, r := range b.batch(k) {
			count[r.Desc()]--
		}
	}
	for desc, n := range count {
		if n != 0 {
			t.Errorf("%s: in TaskSet at reps %d %+d times more than in batches 0 and 1", desc, 2*reps, n)
		}
	}
}

// TestBenchmarkJSONMatchesDecls pins the repository's BENCHMARK.json to
// the declarations the program emits from.
func TestBenchmarkJSONMatchesDecls(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
			if !metricName.MatchString(w.Name) || len(w.Name) > 64 || seen[w.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, w.Name)
			}
			seen[w.Name] = true
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDecls())
	check("per_layer", spec.PerLayer, perLayerDecls())
	for _, d := range endToEndDecls() {
		if d.Bound <= 0 || d.Bound > endToEndDecls()[len(endToEndDecls())-1].Bound {
			t.Errorf("%s: bound %v must be positive and at most setup_s's", d.Name, d.Bound)
		}
	}
}
