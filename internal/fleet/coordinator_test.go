package fleet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/manet"
	"mstc/internal/sweep"
)

// fakeClock is a hand-advanced clock; the coordinator has no timers, so
// advancing it and making a request is the complete expiry mechanism.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func testStore(t *testing.T) *sweep.Store {
	t.Helper()
	s, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// repTasks builds reps repetitions for each of the given speeds (one
// configuration per speed).
func repTasks(reps int, speeds ...float64) []experiment.Run {
	var tasks []experiment.Run
	for rep := 0; rep < reps; rep++ {
		for _, sp := range speeds {
			tasks = append(tasks, experiment.Run{Protocol: "RNG", Speed: sp, Rep: rep})
		}
	}
	return tasks
}

func result(connectivity float64) *manet.Result {
	return &manet.Result{Connectivity: connectivity}
}

// TestLeaseLifecycle drives the full lease state machine with a fake
// clock: grant → heartbeat renewal → expiry → steal by another worker →
// duplicate completion from the original owner absorbed idempotently.
func TestLeaseLifecycle(t *testing.T) {
	clk := newFakeClock()
	st := testStore(t)
	c, err := New(Config{
		Options:    experiment.DefaultOptions(),
		Tasks:      repTasks(4, 40), // one config, 4 reps
		Store:      st,
		Clock:      clk.Now,
		LeaseTTL:   60 * time.Second,
		LeaseBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := c.Subscribe()
	defer cancel()

	// Grant: worker a takes the first batch.
	repA := c.Lease(LeaseRequest{Worker: "a"})
	if len(repA.Tasks) != 2 || repA.Lease == 0 {
		t.Fatalf("lease reply = %+v, want 2 tasks", repA)
	}
	if repA.TTLSeconds != 60 {
		t.Errorf("TTLSeconds = %v, want 60", repA.TTLSeconds)
	}

	// Heartbeats renew: 30s + 45s straddles the original deadline, but
	// the renewal at 30s keeps the lease alive.
	clk.Advance(30 * time.Second)
	if !c.Heartbeat(HeartbeatRequest{Lease: repA.Lease}) {
		t.Fatal("heartbeat at 30s rejected")
	}
	clk.Advance(45 * time.Second)
	if !c.Heartbeat(HeartbeatRequest{Lease: repA.Lease}) {
		t.Fatal("heartbeat at 75s rejected despite renewal at 30s")
	}

	// Expiry: 61s of silence, then worker b asks for work and steals
	// exactly a's tasks (they re-queue at the front).
	clk.Advance(61 * time.Second)
	repB := c.Lease(LeaseRequest{Worker: "b"})
	if len(repB.Tasks) != 2 {
		t.Fatalf("thief got %d tasks, want 2", len(repB.Tasks))
	}
	for i := range repB.Tasks {
		if repB.Tasks[i].ID != repA.Tasks[i].ID {
			t.Errorf("stolen task %d = id %d, want a's id %d", i, repB.Tasks[i].ID, repA.Tasks[i].ID)
		}
	}
	if c.Heartbeat(HeartbeatRequest{Lease: repA.Lease}) {
		t.Error("expired lease still heartbeats")
	}

	// The thief completes the stolen tasks.
	crep, err := c.Complete(CompleteRequest{Lease: repB.Lease, Worker: "b", Outcomes: []Outcome{
		{Task: repB.Tasks[0].ID, Attempts: 1, Result: result(0.9)},
		{Task: repB.Tasks[1].ID, Attempts: 1, Result: result(0.9)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if crep.Accepted != 2 || crep.Duplicate != 0 {
		t.Fatalf("thief completion = %+v, want 2 accepted", crep)
	}

	// The original owner finishes too (it never saw the steal):
	// absorbed as duplicates, not errors, and the store keeps exactly
	// one record per task.
	crep, err = c.Complete(CompleteRequest{Lease: repA.Lease, Worker: "a", Outcomes: []Outcome{
		{Task: repA.Tasks[0].ID, Attempts: 1, Result: result(0.9)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if crep.Accepted != 0 || crep.Duplicate != 1 {
		t.Fatalf("duplicate completion = %+v, want 1 duplicate", crep)
	}

	// Drain the remainder and finish.
	repC := c.Lease(LeaseRequest{Worker: "c"})
	if len(repC.Tasks) != 2 {
		t.Fatalf("final batch = %d tasks, want 2", len(repC.Tasks))
	}
	var outs []Outcome
	for _, task := range repC.Tasks {
		outs = append(outs, Outcome{Task: task.ID, Attempts: 1, Result: result(0.9)})
	}
	crep, err = c.Complete(CompleteRequest{Lease: repC.Lease, Worker: "c", Outcomes: outs})
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Done {
		t.Error("final completion did not report Done")
	}
	select {
	case <-c.DoneCh():
	default:
		t.Error("DoneCh not closed after completion")
	}
	if rep := c.Lease(LeaseRequest{Worker: "d"}); !rep.Done {
		t.Errorf("lease after completion = %+v, want Done", rep)
	}

	status := c.Status()
	if !status.Complete || status.Done != 4 || status.Failed != 0 || status.Pending != 0 || status.Leased != 0 {
		t.Errorf("final status = %+v", status)
	}
	if status.Workers != 4 { // a, b, c, d all introduced themselves
		t.Errorf("workers = %d, want 4", status.Workers)
	}

	// The event stream saw the lifecycle and closed at "done".
	var types []string
	for line := range events {
		s := string(line)
		for _, typ := range []string{"\"type\":\"grant\"", "\"type\":\"expire\"", "\"type\":\"complete\"", "\"type\":\"done\""} {
			if strings.Contains(s, typ) {
				types = append(types, typ)
			}
		}
	}
	joined := strings.Join(types, " ")
	for _, want := range []string{"grant", "expire", "complete", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("event stream missing %q events: %s", want, joined)
		}
	}

	// Exactly 4 records in the store: duplicates were absorbed upstream.
	n := 0
	if err := st.Scan(func(info sweep.RecordInfo) error {
		if info.Err != nil {
			t.Errorf("record %s: %v", info.Path, info.Err)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("store has %d records, want 4", n)
	}
}

// TestLeaseWaitBackoff: when every pending task is leased out, the next
// worker gets a bounded backoff hint rather than an empty grant loop.
func TestLeaseWaitBackoff(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Config{
		Options:    experiment.DefaultOptions(),
		Tasks:      repTasks(1, 40),
		Store:      testStore(t),
		Clock:      clk.Now,
		LeaseTTL:   60 * time.Second,
		LeaseBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := c.Lease(LeaseRequest{Worker: "a"}); len(rep.Tasks) != 1 {
		t.Fatalf("first lease = %+v", rep)
	}
	rep := c.Lease(LeaseRequest{Worker: "b"})
	if !rep.Wait || rep.Done || len(rep.Tasks) != 0 {
		t.Fatalf("starved lease = %+v, want Wait", rep)
	}
	if rep.WaitSeconds != 15 { // ttl/4
		t.Errorf("WaitSeconds = %v, want 15", rep.WaitSeconds)
	}
}

// TestFailureJournaling: an exhausted-retry failure is journaled as a
// failure record, counts toward completion, and surfaces in Status.
func TestFailureJournaling(t *testing.T) {
	clk := newFakeClock()
	st := testStore(t)
	c, err := New(Config{
		Options:    experiment.DefaultOptions(),
		Tasks:      repTasks(2, 40),
		Store:      st,
		Clock:      clk.Now,
		LeaseBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Lease(LeaseRequest{Worker: "a"})
	crep, err := c.Complete(CompleteRequest{Lease: rep.Lease, Worker: "a", Outcomes: []Outcome{
		{Task: rep.Tasks[0].ID, Attempts: 3, Failure: "panic: synthetic"},
		{Task: rep.Tasks[1].ID, Attempts: 1, Result: result(0.5)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Done || crep.Accepted != 2 {
		t.Fatalf("completion = %+v", crep)
	}
	status := c.Status()
	if status.Failed != 1 || status.Done != 1 || !status.Complete {
		t.Errorf("status = %+v, want 1 failed / 1 done / complete", status)
	}
	failures := 0
	if err := st.Scan(func(info sweep.RecordInfo) error {
		if info.Failed {
			failures++
			if info.Record.Failure != "panic: synthetic" {
				t.Errorf("failure message = %q", info.Record.Failure)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Errorf("store has %d failure records, want 1", failures)
	}
}

// TestResumeFromStore: a second coordinator over the same store resolves
// already-journaled tasks as hits and leases only the remainder.
func TestResumeFromStore(t *testing.T) {
	clk := newFakeClock()
	st := testStore(t)
	tasks := repTasks(4, 40)
	cfg := Config{
		Options:    experiment.DefaultOptions(),
		Tasks:      tasks,
		Store:      st,
		Clock:      clk.Now,
		LeaseBatch: 2,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := c1.Lease(LeaseRequest{Worker: "a"})
	var outs []Outcome
	for _, task := range rep.Tasks {
		outs = append(outs, Outcome{Task: task.ID, Attempts: 1, Result: result(0.7)})
	}
	if _, err := c1.Complete(CompleteRequest{Lease: rep.Lease, Worker: "a", Outcomes: outs}); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	status := c2.Status()
	if status.Hits != 2 || status.Pending != 2 || status.Done != 2 {
		t.Errorf("resumed status = %+v, want 2 hits / 2 pending", status)
	}
	// The resumed coordinator's connectivity summary includes the hits.
	if status.Store.Connectivity.N != 2 {
		t.Errorf("resumed Welford N = %d, want 2", status.Store.Connectivity.N)
	}
}
