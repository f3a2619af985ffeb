package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// samples returns n values around base with a small deterministic wobble
// (±0.4 %), so the sides have a realistic, narrow spread.
func samples(base float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + 0.004*float64((i*7)%5-2)/2)
	}
	return out
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func declOf(t *testing.T, name string) metricDecl {
	for _, d := range endToEndDecls() {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return metricDecl{}
}

func TestJudge(t *testing.T) {
	alloc := declOf(t, "alloc_mb_per_run")
	rps := declOf(t, "runs_per_s")
	parent := samples(100, 10)
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 150}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		decl           metricDecl
		want           string
	}{
		{"10% more allocation over 10 pairs", parent, scaled(parent, 1.10), alloc, "regression"},
		{"30% lower throughput over 10 pairs", parent, scaled(parent, 0.70), rps, "regression"},
		{"identical samples", parent, parent, alloc, "unchanged"},
		{"shift within the bound", parent, scaled(parent, 1.02), alloc, "unchanged"},
		{"spread wider than the bound", wide, scaled(wide, 0.9), rps, "unresolved"},
		{"20% less allocation", parent, scaled(parent, 0.80), alloc, "gain"},
		{"5% more throughput, every pair", parent, scaled(parent, 1.05), rps, "gain"},
	} {
		v := judge(tc.parent, tc.change, tc.decl.Better, tc.decl.Bound)
		if v.result != tc.want {
			t.Errorf("%s: %s (worse %.3f, wins %d/%d), want %s", tc.name, v.result, v.worse, v.wins, v.pairs, tc.want)
		}
	}
}

// TestCompareMainOnSavedRuns drives the compare command end to end over
// saved run outputs.
func TestCompareMainOnSavedRuns(t *testing.T) {
	root := t.TempDir()
	write := func(side string, i int, scale float64) {
		dir := filepath.Join(root, side)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		line := resultLine{Correct: true, Attempted: 120, Metrics: map[string]metricValue{}}
		for _, d := range endToEndDecls() {
			v := samples(10, 10)[i]
			if d.Name == "run_ms_p50" {
				v *= scale
			}
			line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("env nproc=2\nworkload=fig6-flood seed=%d trace=false\n%s\n", i, b)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02d.txt", i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write("parent", i, 1)
		write("change", i, 1.4)
	}
	var stdout, stderr bytes.Buffer
	code := compareMain([]string{"-spec", filepath.Join("..", "..", "BENCHMARK.json"),
		filepath.Join(root, "parent"), filepath.Join(root, "change")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (regression); stderr %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "run_ms_p50") || !strings.Contains(out, "regression") {
		t.Errorf("output lacks the run_ms_p50 regression:\n%s", out)
	}
	if strings.Count(out, "unchanged") != len(endToEndDecls())-1 {
		t.Errorf("want every other metric unchanged:\n%s", out)
	}
}
