package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare applies the noise-aware rule for judging a change against its
// parent to two directories of saved run outputs (one run's standard output
// per file). Runs pair up per workload in file-name order, so name the
// files in the order they ran, alternating which side ran first.

// minPairs is the fewest parent/change pairs the rule accepts.
const minPairs = 10

// verdict is the comparison of one end-to-end metric on one workload.
type verdict struct {
	parentQ1, parentMed, parentQ3 float64
	changeQ1, changeMed, changeQ3 float64
	wins, pairs                   int
	worse                         float64 // change's median vs parent's, as a share; positive = worse
	result                        string  // gain, regression, unresolved, unchanged
}

// judge compares paired samples of one metric.
//
//   - gain: the change wins at least 9/10 of the pairs (ties count for
//     neither) and the medians differ, in its favour, by more than the
//     parent's interquartile range;
//   - regression: the change's median is worse than the parent's by more
//     than the bound, with the spread of both sides within the bound (or
//     every change run worse than every parent run);
//   - unresolved: a side's spread (IQR as a share of its median) exceeds
//     the bound, unless every change run is better than every parent run;
//   - unchanged: otherwise.
func judge(parent, change []float64, better string, bound float64) verdict {
	sign := 1.0 // lower is better: an increase is worse
	if better == "higher" {
		sign = -1
	}
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	v := verdict{pairs: n}
	for i := 0; i < n; i++ {
		if sign*(change[i]-parent[i]) < 0 {
			v.wins++
		}
	}
	v.parentQ1, v.parentMed, v.parentQ3 = quartiles(parent[:n])
	v.changeQ1, v.changeMed, v.changeQ3 = quartiles(change[:n])
	if v.parentMed != 0 {
		v.worse = sign * (v.changeMed - v.parentMed) / math.Abs(v.parentMed)
	}
	spread := math.Max(relIQR(parent[:n]), relIQR(change[:n]))
	bestParent, worstParent := extremes(parent[:n], sign)
	bestChange, worstChange := extremes(change[:n], sign)
	allBetter := sign*(worstChange-bestParent) < 0
	allWorse := sign*(bestChange-worstParent) > 0
	switch {
	case 10*v.wins >= 9*n && sign*(v.parentMed-v.changeMed) > v.parentQ3-v.parentQ1:
		v.result = "gain"
	case allWorse && v.worse > bound:
		v.result = "regression"
	case spread > bound && !allBetter:
		v.result = "unresolved"
	case v.worse > bound:
		v.result = "regression"
	default:
		v.result = "unchanged"
	}
	return v
}

// extremes returns the best and worst value of xs under the direction sign
// (1 = lower is better).
func extremes(xs []float64, sign float64) (best, worst float64) {
	best, worst = xs[0], xs[0]
	for _, x := range xs[1:] {
		if sign*(x-best) < 0 {
			best = x
		}
		if sign*(x-worst) > 0 {
			worst = x
		}
	}
	return best, worst
}

// savedRun is one run's output: its workload and result line.
type savedRun struct {
	file     string
	workload string
	traced   bool
	result   resultLine
}

// loadRuns reads every file of dir as one run's standard output. Traced
// runs carry per-layer metrics only and are left out.
func loadRuns(dir string) (map[string][]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byWorkload := map[string][]savedRun{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		run, err := parseRunOutput(path)
		if err != nil {
			return nil, err
		}
		if !run.traced {
			byWorkload[run.workload] = append(byWorkload[run.workload], run)
		}
	}
	for _, runs := range byWorkload {
		sort.Slice(runs, func(i, j int) bool { return runs[i].file < runs[j].file })
	}
	return byWorkload, nil
}

func parseRunOutput(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	run := savedRun{file: filepath.Base(path)}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "workload="); ok {
			run.workload, _, _ = strings.Cut(rest, " ")
			run.traced = strings.Contains(rest, " trace=true")
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, fmt.Errorf("%s: %w", path, err)
	}
	if run.workload == "" {
		return savedRun{}, fmt.Errorf("%s: no workload= line; not an mstcbench output", path)
	}
	if err := json.Unmarshal([]byte(last), &run.result); err != nil {
		return savedRun{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return run, nil
}

// benchmarkSpec is the part of BENCHMARK.json the rule needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mstcbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: mstcbench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "mstcbench compare:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(stderr, "mstcbench compare:", *specPath, err)
		return 2
	}
	parent, err := loadRuns(fs.Arg(0))
	if err == nil {
		var change map[string][]savedRun
		if change, err = loadRuns(fs.Arg(1)); err == nil {
			return compareRuns(stdout, spec, parent, change)
		}
	}
	fmt.Fprintln(stderr, "mstcbench compare:", err)
	return 2
}

// compareRuns prints one verdict per workload and end-to-end metric and
// returns 1 when any is a regression or the evidence is insufficient.
func compareRuns(w io.Writer, spec benchmarkSpec, parent, change map[string][]savedRun) int {
	var workloads []string
	for name := range parent {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	status := 0
	fmt.Fprintf(w, "%-17s %-17s %30s %30s %7s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads {
		p, c := parent[wl], change[wl]
		n := len(p)
		if len(c) < n {
			n = len(c)
		}
		if n < minPairs {
			fmt.Fprintf(w, "%-17s only %d parent/change pairs; the rule needs %d\n", wl, n, minPairs)
			status = 1
			continue
		}
		for i := 0; i < n; i++ {
			for _, r := range []savedRun{p[i], c[i]} {
				if !r.result.Correct || r.result.Failed > 0 {
					fmt.Fprintf(w, "%-17s %s: incorrect run (%d of %d failed)\n", wl, r.file, r.result.Failed, r.result.Attempted)
					status = 1
				}
			}
		}
		for _, m := range spec.EndToEnd {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				pv[i] = p[i].result.Metrics[m.Name].Value
				cv[i] = c[i].result.Metrics[m.Name].Value
			}
			v := judge(pv, cv, m.Better, m.Bound)
			fmt.Fprintf(w, "%-17s %-17s %12.5g [%7.4g, %7.4g] %12.5g [%7.4g, %7.4g] %3d/%-3d  %s (%+.1f%% worse, bound %.0f%%)\n",
				wl, m.Name, v.parentMed, v.parentQ1, v.parentQ3, v.changeMed, v.changeQ1, v.changeQ3,
				v.wins, v.pairs, v.result, 100*v.worse, 100*m.Bound)
			if v.result == "regression" {
				status = 1
			}
		}
	}
	return status
}
