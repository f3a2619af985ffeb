package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mstc/internal/sweep"
)

func TestTaskSetNamesAndErrors(t *testing.T) {
	names := TaskSetNames()
	if len(names) < 5 {
		t.Fatalf("TaskSetNames = %v, suspiciously few", names)
	}
	for _, name := range names {
		if _, err := TaskSet(name, QuickOptions()); err != nil {
			t.Errorf("TaskSet(%q): %v", name, err)
		}
	}
	for _, name := range []string{"fig99", "faults", "bufferzone"} {
		if _, err := TaskSet(name, QuickOptions()); err == nil {
			t.Errorf("TaskSet(%q) accepted", name)
		}
	}
	// Names match case-insensitively, as paperfig's -exp always has.
	upper, err := TaskSet("FIG6", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	lower, _ := TaskSet("fig6", QuickOptions())
	if len(upper) == 0 || !reflect.DeepEqual(upper, lower) {
		t.Errorf("TaskSet(FIG6) has %d runs, TaskSet(fig6) %d", len(upper), len(lower))
	}
	if _, err := Lookup("Fig99"); err == nil || !strings.Contains(err.Error(), "fig6") {
		t.Errorf("Lookup(Fig99) = %v, want an error listing the valid names", err)
	}
}

// TestTaskSetOrderPinned pins every named task set, run for run and in
// order, at QuickOptions: the digest is sha256 over each run's Desc line.
// The sets are the fleet's and the benchmark's units of work (bench/ runs
// fig6 and consistency), so any change to a grid or its order must be
// deliberate.
func TestTaskSetOrderPinned(t *testing.T) {
	want := map[string]string{
		"table1":      "1c36f9091d936be0597a818be97d334e2f58e78e9e16d167c9e722a8c6ec9885",
		"fig6":        "1cc3c1ff8685391f7f530df70e58997e67dec1f926d1d5430e8d9d1fef485e57",
		"fig7":        "91a5129c69cb416baff2638663afac7b54fd6491bc9c8a6715ff7bacd3da83e4",
		"fig8":        "bebe4ab54b12521caaf22d86067edf2ad76f3595bba7eea242a653e3910fad4c",
		"fig9":        "be39842465c8db03ee646c5b05e1b128ab3b14ef09ec2f168297017d82557c7c",
		"fig10":       "319eecd91351f5e09e49a7f247375f700565361096392578e3ec1fb9a7697799",
		"consistency": "502b09a4e6bbf9abdb9fd1696103c9184e814ed8a4f47205df5aa53f373f18ef",
		"energy":      "19f2efee133a00101dac1888507696c6efdaa3a9bd6b1b53b2196232297ba254",
		"routing":     "ae8e2f751c23c7fc48b441defccdc7fde3fc29779c20bb9dbfc3c902e57af265",
		"traffic":     "2c4fcbe59b69d9c40c429746e7c97dcb8a6549aa456cd9fa658498183bd60a06",
	}
	for _, name := range TaskSetNames() {
		if name == "all" {
			continue // TestTaskSetAllDeduplicates
		}
		tasks, err := TaskSet(name, QuickOptions())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, r := range tasks {
			fmt.Fprintf(h, "%s\n", r.Desc())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("TaskSet(%q): %d runs, digest %s, want %s", name, len(tasks), got, want[name])
		}
	}
}

// TestTaskSetAllDeduplicates checks that "all" is exactly the union of
// the InAll entries' task sets, in presentation order with each
// (configuration, rep) once — what paperfig -exp all renders, and
// nothing it does not.
func TestTaskSetAllDeduplicates(t *testing.T) {
	for _, tc := range []struct {
		o    Options
		runs int
	}{{QuickOptions(), 417}, {DefaultOptions(), 5820}} {
		all, err := TaskSet("all", tc.o)
		if err != nil {
			t.Fatal(err)
		}
		var want []Run
		seen := make(map[sweep.Key]bool)
		for _, e := range Experiments() {
			if !e.InAll {
				continue
			}
			for _, r := range e.Tasks(tc.o) {
				if k := (sweep.Key{Run: r.ConfigKey(), Rep: r.Rep}); !seen[k] {
					seen[k] = true
					want = append(want, r)
				}
			}
		}
		if !reflect.DeepEqual(all, want) {
			t.Errorf("TaskSet(all) has %d runs; the InAll union has %d", len(all), len(want))
		}
		if len(all) != tc.runs {
			t.Errorf("TaskSet(all) has %d runs at reps=%d, want %d", len(all), tc.o.Reps, tc.runs)
		}
	}
}

// TestTaskSetWarmsFigureRendering is the property the fleet daemon rests
// on: executing an entry's task set into a store leaves the entry itself
// renderable with zero recomputation — for every entry with a task set.
func TestTaskSetWarmsFigureRendering(t *testing.T) {
	o := sweepTestOptions()
	o.N, o.Duration, o.Reps = 20, 2, 1
	o.Speeds, o.Buffers = []float64{1, 40}, []float64{0, 10}
	for _, e := range Experiments() {
		if e.Tasks == nil {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			o := o
			o.Store = openStore(t)
			tasks, err := TaskSet(e.Name, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Execute(o, tasks); err != nil {
				t.Fatal(err)
			}
			var recomputed atomic.Int64
			o.Progress = func(done, total int) { recomputed.Add(1) }
			outs, err := e.Render(o)
			if err != nil {
				t.Fatal(err)
			}
			if recomputed.Load() != 0 {
				t.Errorf("%s over a task-set-warmed store recomputed %d runs, want 0", e.Name, recomputed.Load())
			}
			if len(outs) == 0 {
				t.Errorf("%s rendered no outputs", e.Name)
			}
		})
	}
}

func TestComputeRunMatchesExecutor(t *testing.T) {
	o := sweepTestOptions()
	tasks := []Run{
		{Protocol: "RNG", Speed: 40, Rep: 1},
		{Protocol: "MST", Speed: 1, Rep: 0},
	}
	want, err := Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tasks {
		got, attempts, err := ComputeRunRetry(o, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		if attempts != 1 {
			t.Errorf("attempts = %d, want 1", attempts)
		}
		if got != want[i] {
			t.Errorf("ComputeRunRetry(%s) diverges from executor:\n got %+v\nwant %+v", r.Desc(), got, want[i])
		}
	}
}
