package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/stats"
	"mstc/internal/sweep"
)

// Config configures a Coordinator.
type Config struct {
	// Options are the sweep-wide experiment options (result-affecting
	// fields feed the fingerprint and the JobSpec served to workers).
	Options experiment.Options
	// Tasks is the task set. Store hits are resolved at construction;
	// the rest is leased out.
	Tasks []experiment.Run
	// Store journals every completion; it must be non-nil.
	Store *sweep.Store
	// Clock supplies "now" for lease deadlines, liveness, and ETA.
	Clock Clock
	// LeaseTTL is how long a lease lives without a heartbeat or
	// completion before its tasks are stolen. Default 60s.
	LeaseTTL time.Duration
	// LeaseBatch is the maximum tasks granted per lease. Small batches
	// bound the work lost to a dead worker; default 4.
	LeaseBatch int
	// Retries is the per-run panic-retry budget advertised to workers.
	Retries int
}

// taskState is the lease-protocol lifecycle of one task.
type taskState uint8

const (
	taskPending taskState = iota
	taskLeased
	taskDone
	taskFailed
)

type taskEntry struct {
	run   experiment.Run
	key   sweep.Key
	desc  string
	state taskState
}

type lease struct {
	id       uint64
	worker   string
	deadline time.Time
	// tasks are the granted task indices still owned by this lease.
	tasks []int
}

// Coordinator is the lease-granting, store-owning sweep service. All
// methods are safe for concurrent use (net/http serves each request on
// its own goroutine); the single mutex is uncontended at fleet scale —
// runs take seconds, requests take microseconds.
type Coordinator struct {
	mu sync.Mutex

	opts        experiment.Options
	fingerprint string
	store       *sweep.Store
	clock       Clock
	ttl         time.Duration
	batch       int
	retries     int

	tasks   []taskEntry
	pending []int // task indices awaiting a lease, FIFO; stolen work re-queues at the front
	leases  map[uint64]*lease
	nextID  uint64

	workers map[string]bool
	hits    int
	done    int // journaled successes (store hits included)
	failed  int
	// conn folds the connectivity of every journaled success.
	conn stats.Welford
	// computed counts worker-journaled completions (success or failure)
	// this session; it drives ETA and checkpoint pacing.
	computed int
	started  bool
	startAt  time.Time

	complete bool
	doneCh   chan struct{}

	subs     map[*subscriber]bool
	eventSeq uint64
}

// New builds a coordinator: it fingerprints the options, resolves store
// hits for the base task set, and indexes the remainder for leasing.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: coordinator requires a result store")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("fleet: coordinator requires a clock")
	}
	if len(cfg.Tasks) == 0 {
		return nil, fmt.Errorf("fleet: empty task set")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 60 * time.Second
	}
	if cfg.LeaseBatch <= 0 {
		cfg.LeaseBatch = 4
	}
	c := &Coordinator{
		opts:        cfg.Options,
		fingerprint: cfg.Options.Fingerprint(),
		store:       cfg.Store,
		clock:       cfg.Clock,
		ttl:         cfg.LeaseTTL,
		batch:       cfg.LeaseBatch,
		retries:     cfg.Retries,
		leases:      make(map[uint64]*lease),
		workers:     make(map[string]bool),
		doneCh:      make(chan struct{}),
		subs:        make(map[*subscriber]bool),
	}
	c.tasks = make([]taskEntry, len(cfg.Tasks))
	for i, r := range cfg.Tasks {
		t := &c.tasks[i]
		*t = taskEntry{run: r, key: r.StoreKey(c.fingerprint), desc: r.Desc()}
		if res, ok := c.store.Get(t.key, t.desc); ok {
			t.state = taskDone
			c.hits++
			c.done++
			c.conn.Add(res.Connectivity)
			continue
		}
		c.pending = append(c.pending, i)
	}
	return c, nil
}

// Fingerprint returns the options fingerprint the sweep journals under.
func (c *Coordinator) Fingerprint() string { return c.fingerprint }

// Job returns the wire spec served to workers.
func (c *Coordinator) Job() JobSpec {
	j := JobFromOptions(c.opts, c.retries)
	j.Fingerprint = c.fingerprint
	return j
}

// DoneCh is closed when the sweep completes (all tasks journaled).
// cmd/sweepd uses it for -exit-on-done.
func (c *Coordinator) DoneCh() <-chan struct{} { return c.doneCh }

// reapExpired returns expired leases' unfinished tasks to the front of
// the pending queue. Called under mu from every entry point, which is
// the whole expiry mechanism — no timers, so a fake clock drives it in
// tests exactly like the wall clock does in production.
func (c *Coordinator) reapExpired(now time.Time) {
	for id, l := range c.leases { //lint:order-independent each expired lease is handled independently; stolen tasks re-queue sorted below
		if now.Before(l.deadline) {
			continue
		}
		var stolen []int
		for _, ti := range l.tasks {
			if c.tasks[ti].state == taskLeased {
				c.tasks[ti].state = taskPending
				stolen = append(stolen, ti)
			}
		}
		sort.Ints(stolen)
		c.pending = append(stolen, c.pending...)
		delete(c.leases, id)
		c.publish(Event{Type: "expire", Worker: l.worker, Lease: id, Task: -1,
			Desc: fmt.Sprintf("%d tasks returned to queue", len(stolen))}, now)
	}
}

// Lease grants up to LeaseBatch pending tasks. See LeaseReply for the
// three reply shapes.
func (c *Coordinator) Lease(req LeaseRequest) LeaseReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.workers[req.Worker] = true
	c.reapExpired(now)
	c.checkComplete(now)
	if c.complete {
		return LeaseReply{Done: true}
	}

	var grant []int
	for len(c.pending) > 0 && len(grant) < c.batch {
		ti := c.pending[0]
		c.pending = c.pending[1:]
		if c.tasks[ti].state != taskPending {
			continue // satisfied while queued (late duplicate completion)
		}
		c.tasks[ti].state = taskLeased
		grant = append(grant, ti)
	}
	if len(grant) == 0 {
		// Everything is leased to other workers: back off for a fraction
		// of the TTL so a stolen lease is noticed promptly.
		return LeaseReply{Wait: true, WaitSeconds: (c.ttl / 4).Seconds()}
	}
	if !c.started {
		c.started = true
		c.startAt = now
	}
	c.nextID++
	l := &lease{id: c.nextID, worker: req.Worker, deadline: now.Add(c.ttl), tasks: grant}
	c.leases[l.id] = l
	rep := LeaseReply{Lease: l.id, TTLSeconds: c.ttl.Seconds()}
	for _, ti := range grant {
		rep.Tasks = append(rep.Tasks, Task{ID: ti, Run: c.tasks[ti].run})
	}
	c.publish(Event{Type: "grant", Worker: req.Worker, Lease: l.id, Task: -1,
		Desc: fmt.Sprintf("%d tasks", len(grant))}, now)
	return rep
}

// Heartbeat renews a lease. It reports false when the lease is unknown
// or already expired — the worker should abandon the batch and re-lease
// (its completed tasks are safe; its unfinished ones may already be
// granted elsewhere).
func (c *Coordinator) Heartbeat(req HeartbeatRequest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.reapExpired(now)
	l, ok := c.leases[req.Lease]
	if !ok {
		return false
	}
	l.deadline = now.Add(c.ttl)
	return true
}

// Complete journals a batch of outcomes. Unknown or expired leases are
// not an error: deterministic results are valid no matter who computed
// them, so late completions of stolen work are absorbed (and counted as
// duplicates when the thief already finished). The one hard failure is
// a store write error, which the worker may simply retry.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.workers[req.Worker] = true
	c.reapExpired(now)
	l := c.leases[req.Lease] // may be nil: expired or fully drained

	var rep CompleteReply
	for _, out := range req.Outcomes {
		if out.Task < 0 || out.Task >= len(c.tasks) {
			return rep, fmt.Errorf("fleet: outcome for unknown task %d", out.Task)
		}
		t := &c.tasks[out.Task]
		if t.state == taskDone || t.state == taskFailed {
			rep.Duplicate++
			continue
		}
		if out.Failure != "" {
			if err := c.store.PutFailure(t.key, t.desc, out.Attempts, out.Failure); err != nil {
				return rep, err
			}
			t.state = taskFailed
			c.failed++
			c.computed++
			c.publish(Event{Type: "failure", Worker: req.Worker, Lease: req.Lease,
				Task: out.Task, Desc: t.desc}, now)
		} else {
			if out.Result == nil {
				return rep, fmt.Errorf("fleet: outcome for task %d has neither result nor failure", out.Task)
			}
			if err := c.store.Put(t.key, t.desc, out.Attempts, *out.Result); err != nil {
				return rep, err
			}
			t.state = taskDone
			c.done++
			c.computed++
			c.conn.Add(out.Result.Connectivity)
			c.publish(Event{Type: "complete", Worker: req.Worker, Lease: req.Lease,
				Task: out.Task, Desc: t.desc}, now)
		}
		rep.Accepted++
		if l != nil {
			l.tasks = removeInt(l.tasks, out.Task)
		}
	}
	if l != nil {
		if len(l.tasks) == 0 {
			delete(c.leases, req.Lease)
		} else {
			// Completion is liveness: renew alongside explicit heartbeats.
			l.deadline = now.Add(c.ttl)
		}
	}
	if rep.Accepted > 0 && c.computed%checkpointEvery == 0 {
		c.flushCheckpoint(false)
	}
	c.checkComplete(now)
	rep.Done = c.complete
	return rep, nil
}

// checkpointEvery paces advisory checkpoint flushes, mirroring the
// in-process executor's cadence.
const checkpointEvery = 32

// flushCheckpoint writes the advisory progress summary. Total counts
// this session's computable tasks (store hits excluded), matching the
// executor's convention, so `sweepctl status` reads fleet and local
// sweeps identically.
func (c *Coordinator) flushCheckpoint(interrupted bool) {
	_ = c.store.WriteCheckpoint(sweep.Checkpoint{
		Fingerprint: c.fingerprint,
		Done:        c.computed,
		Total:       len(c.tasks) - c.hits,
		Interrupted: interrupted,
	})
}

// Interrupt flushes an interrupted checkpoint (cmd/sweepd calls it on
// SIGINT before exiting; the per-record journal already holds every
// completed run).
func (c *Coordinator) Interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.complete {
		c.flushCheckpoint(true)
	}
}

// checkComplete flips the coordinator into its terminal state once no
// task is pending or leased.
func (c *Coordinator) checkComplete(now time.Time) {
	if c.complete {
		return
	}
	// Scrub stale queue entries: a requeued stolen task may have been
	// completed by its original worker while waiting.
	live := c.pending[:0]
	for _, ti := range c.pending {
		if c.tasks[ti].state == taskPending {
			live = append(live, ti)
		}
	}
	c.pending = live
	if len(c.pending) > 0 || len(c.leases) > 0 {
		return
	}
	for i := range c.tasks {
		if s := c.tasks[i].state; s != taskDone && s != taskFailed {
			return
		}
	}
	c.complete = true
	c.flushCheckpoint(false)
	c.publish(Event{Type: "done", Task: -1,
		Desc: fmt.Sprintf("%d done, %d failed", c.done, c.failed)}, now)
	for s := range c.subs { //lint:order-independent closing every subscriber; order immaterial
		close(s.ch)
	}
	c.subs = make(map[*subscriber]bool)
	close(c.doneCh)
}

// Status snapshots the coordinator.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.reapExpired(now)
	st := Status{
		Fingerprint: c.fingerprint,
		Total:       len(c.tasks),
		Done:        c.done,
		Failed:      c.failed,
		Hits:        c.hits,
		Computed:    c.computed,
		Workers:     len(c.workers),
		Complete:    c.complete,
	}
	for i := range c.tasks {
		switch c.tasks[i].state {
		case taskPending:
			st.Pending++
		case taskLeased:
			st.Leased++
		}
	}
	if c.started && c.computed > 0 {
		elapsed := now.Sub(c.startAt).Seconds()
		if elapsed > 0 {
			st.ElapsedSeconds = elapsed
			st.RunsPerSecond = float64(c.computed) / elapsed
			st.ETASeconds = float64(st.Pending+st.Leased) / st.RunsPerSecond
		}
	}
	st.Store = FingerprintSummary{Fingerprint: c.fingerprint, Runs: c.done, Failed: c.failed,
		Connectivity: metricOf(c.conn)}
	return st
}

// subscriber is one /events client.
type subscriber struct {
	ch chan []byte
}

// Subscribe registers an events listener. The returned channel closes
// when the sweep completes; cancel unregisters early. A subscriber that
// falls more than the buffer behind loses events (the stream is a
// monitor, not a journal — the store is the journal).
func (c *Coordinator) Subscribe() (<-chan []byte, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &subscriber{ch: make(chan []byte, 256)}
	if c.complete {
		close(s.ch)
		return s.ch, func() {}
	}
	c.subs[s] = true
	return s.ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.subs[s] {
			delete(c.subs, s)
			close(s.ch)
		}
	}
}

// publish fans an event to subscribers. Called under mu.
func (c *Coordinator) publish(ev Event, now time.Time) {
	c.eventSeq++
	ev.Seq = c.eventSeq
	ev.UnixMillis = now.UnixMilli()
	ev.Done = c.done
	ev.Total = len(c.tasks)
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	data = append(data, '\n')
	for s := range c.subs { //lint:order-independent independent best-effort sends; delivery order per subscriber is preserved by its own channel
		select {
		case s.ch <- data:
		default: // slow consumer: drop
		}
	}
}

// removeInt deletes the first occurrence of v, preserving order.
func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
