package fleet

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/sweep"
)

func e2eOptions() experiment.Options {
	o := experiment.DefaultOptions()
	o.N = 40
	o.Duration = 3
	return o
}

// TestJobSpecRoundTrip: the wire spec reconstructs options with the same
// fingerprint, which is the worker's version-skew guard.
func TestJobSpecRoundTrip(t *testing.T) {
	o := e2eOptions()
	job := JobFromOptions(o, 2)
	if job.Fingerprint != o.Fingerprint() {
		t.Fatalf("spec fingerprint %s != options fingerprint %s", job.Fingerprint, o.Fingerprint())
	}
	if got := job.Options().Fingerprint(); got != job.Fingerprint {
		t.Errorf("round-tripped options fingerprint %s != %s", got, job.Fingerprint)
	}
	data, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Options().Fingerprint(); got != job.Fingerprint {
		t.Errorf("JSON round-trip changed fingerprint: %s != %s", got, job.Fingerprint)
	}
}

// TestEndToEndHTTP runs a real sweep through the full HTTP stack: a
// coordinator behind httptest, two Worker loops computing real runs
// concurrently, and the results byte-compared against direct in-process
// execution of the same tasks.
func TestEndToEndHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("computes real simulation runs")
	}
	o := e2eOptions()
	tasks := []experiment.Run{
		{Protocol: "RNG", Speed: 40, Rep: 0},
		{Protocol: "RNG", Speed: 40, Rep: 1},
		{Protocol: "MST", Speed: 40, Rep: 0},
		{Protocol: "MST", Speed: 40, Rep: 1},
	}
	clk := newFakeClock()
	st := testStore(t)
	c, err := New(Config{
		Options:    o,
		Tasks:      tasks,
		Store:      st,
		Clock:      clk.Now,
		LeaseTTL:   60 * time.Second,
		LeaseBatch: 1, // force interleaving between the two workers
		Retries:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// Follow the NDJSON event stream while the sweep runs.
	eventsDone := make(chan []string, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/events")
		if err != nil {
			eventsDone <- nil
			return
		}
		defer resp.Body.Close()
		var types []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err == nil {
				types = append(types, ev.Type)
			}
		}
		eventsDone <- types
	}()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				URL:   srv.URL,
				Name:  []string{"east", "west"}[i],
				Sleep: func(time.Duration) {},
			}
			errs[i] = w.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// The journaled results must be byte-identical to direct execution.
	for _, r := range tasks {
		want, err := experiment.ComputeRun(o, r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := st.Get(r.StoreKey(c.Fingerprint()), r.Desc())
		if !ok {
			t.Fatalf("%s: missing from store", r.Desc())
		}
		if got != want {
			t.Errorf("%s: fleet result differs from direct execution:\n got %+v\nwant %+v", r.Desc(), got, want)
		}
	}

	// /status over HTTP reports completion with the shared encoding.
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !status.Complete || status.Done != len(tasks) || status.Computed != len(tasks) {
		t.Errorf("status = %+v, want complete with %d done", status, len(tasks))
	}
	if status.Workers != 2 {
		t.Errorf("workers = %d, want 2", status.Workers)
	}
	if status.Store.Runs != len(tasks) || status.Store.Connectivity.N != len(tasks) {
		t.Errorf("store summary = %+v", status.Store)
	}

	// The event stream terminated at "done".
	select {
	case types := <-eventsDone:
		if len(types) == 0 || types[len(types)-1] != "done" {
			t.Errorf("event stream types = %v, want trailing done", types)
		}
	case <-time.After(10 * time.Second):
		t.Error("event stream did not terminate")
	}

	// The offline summary of the same store matches the daemon's live one.
	sum, err := SummarizeStore(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Fingerprints) != 1 {
		t.Fatalf("summary fingerprints = %d, want 1", len(sum.Fingerprints))
	}
	fp := sum.Fingerprints[0]
	if fp.Fingerprint != status.Fingerprint || fp.Runs != status.Store.Runs {
		t.Errorf("offline summary %+v != live %+v", fp, status.Store)
	}
	// The live fold adds in completion order and the offline one in store
	// order, so they agree to within float rounding; N is exact.
	if fp.Connectivity.N != status.Store.Connectivity.N ||
		math.Abs(fp.Connectivity.Mean-status.Store.Connectivity.Mean) > 1e-12 ||
		math.Abs(fp.Connectivity.CI95-status.Store.Connectivity.CI95) > 1e-12 {
		t.Errorf("offline connectivity %+v != live %+v", fp.Connectivity, status.Store.Connectivity)
	}
	if sum.Checkpoint == nil || sum.Checkpoint.Done != len(tasks) {
		t.Errorf("summary checkpoint = %+v", sum.Checkpoint)
	}
}

// TestWorkerFingerprintMismatch: a worker refuses a coordinator whose
// advertised fingerprint disagrees with its own computation.
func TestWorkerFingerprintMismatch(t *testing.T) {
	job := JobFromOptions(e2eOptions(), 1)
	job.Fingerprint = "0123456789abcdef0123456789abcdef" // sabotage
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(job)
	}))
	defer srv.Close()
	w := &Worker{URL: srv.URL, Name: "skewed", Sleep: func(time.Duration) {}}
	err := w.Run()
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("worker error = %v, want fingerprint mismatch", err)
	}
}

// TestWorkerRejectsBadEngineKnobs: a worker whose engine knobs every run
// would reject returns an error before it leases anything, so it neither
// journals failure records nor holds tasks another worker could compute.
func TestWorkerRejectsBadEngineKnobs(t *testing.T) {
	st := testStore(t)
	c, err := New(Config{
		Options: e2eOptions(),
		Tasks:   repTasks(2, 40),
		Store:   st,
		Clock:   newFakeClock().Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for _, knobs := range [][2]int{{100, 0}, {-1, 0}, {0, 2}, {2, -1}} {
		w := &Worker{URL: srv.URL, Name: "bad", Sleep: func(time.Duration) {},
			Domains: knobs[0], EngineWorkers: knobs[1]}
		if err := w.Run(); err == nil {
			t.Errorf("worker with Domains=%d EngineWorkers=%d ran", knobs[0], knobs[1])
		}
	}
	status := c.Status()
	if status.Pending != 2 || status.Leased != 0 || status.Failed != 0 || status.Workers != 0 {
		t.Errorf("status after rejected workers = %+v, want 2 pending and nothing leased, failed or seen", status)
	}
	records := 0
	if err := st.Scan(func(sweep.RecordInfo) error { records++; return nil }); err != nil || records != 0 {
		t.Errorf("store holds %d records (err %v), want none", records, err)
	}
}

// corruptCheckpoint truncates the advisory checkpoint file in place.
func corruptCheckpoint(t *testing.T, st *sweep.Store) {
	t.Helper()
	path := filepath.Join(st.Dir(), "checkpoint.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeStoreSurfacesCorruptCheckpoint: the shared summary keeps
// working when the advisory checkpoint is damaged, reporting the defect
// alongside the intact records.
func TestSummarizeStoreSurfacesCorruptCheckpoint(t *testing.T) {
	st := testStore(t)
	r := experiment.Run{Protocol: "RNG", Speed: 40, Rep: 0}
	fp := e2eOptions().Fingerprint()
	if err := st.Put(r.StoreKey(fp), r.Desc(), 1, *result(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(sweep.Checkpoint{Fingerprint: fp, Done: 1, Total: 1}); err != nil {
		t.Fatal(err)
	}
	corruptCheckpoint(t, st)
	sum, err := SummarizeStore(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CheckpointError == "" || sum.Checkpoint != nil {
		t.Errorf("summary = checkpoint %+v error %q, want nil + non-empty error", sum.Checkpoint, sum.CheckpointError)
	}
	if len(sum.Fingerprints) != 1 || sum.Fingerprints[0].Runs != 1 {
		t.Errorf("records not summarized despite checkpoint damage: %+v", sum.Fingerprints)
	}
}
