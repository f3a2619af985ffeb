// Package fleet turns the sweep subsystem's resumable result store into
// a distributed service: a coordinator daemon (cmd/sweepd) that owns the
// store and the task set, and stateless workers (paperfig -worker) that
// lease batches of runs over HTTP, compute them, and post the results
// back.
//
// # Leases
//
// The unit of distribution is a lease: a batch of pending tasks granted
// to one worker together with a TTL. The worker renews the lease with
// heartbeats (and implicitly with every posted completion); a lease
// whose deadline passes is reaped lazily — its unfinished tasks return
// to the pending queue and are handed to the next worker that asks
// (work stealing). Because every run is deterministic given
// (fingerprint, key, rep), a stolen task recomputed elsewhere produces
// byte-identical results, so a crashed or partitioned worker costs only
// time, never correctness: duplicate completions are detected by task
// state and absorbed idempotently.
//
// The coordinator computes exactly its task set, minus the runs its
// store already holds: a fleet store is byte-identical to the store a
// single-process sweep of the same task set writes.
//
// # Time
//
// All time-dependent logic — lease deadlines, heartbeat liveness, ETA —
// flows through the injected Config.Clock. The package itself never
// reads the wall clock (the no-wallclock analyzer holds), which is also
// what makes the lease state machine unit-testable with a fake clock.
package fleet

import (
	"time"

	"mstc/internal/channel"
	"mstc/internal/experiment"
	"mstc/internal/manet"
	"mstc/internal/radio"
)

// Clock supplies the daemon's notion of "now". cmd/sweepd injects the
// wall clock; tests inject a fake. The simulation itself never sees it.
type Clock func() time.Time

// JobSpec is the sweep-wide job description the coordinator serves at
// GET /job: every option field a worker needs to compute any task of
// the sweep, plus the options fingerprint the results will be journaled
// under. The result-affecting fields are exactly the ones
// experiment.Options.Fingerprint covers, so a worker can (and does)
// recompute the fingerprint from the spec and refuse to work for a
// coordinator it disagrees with — catching binary/version skew before
// it can journal a wrong record.
type JobSpec struct {
	N             int            `json:"n"`
	ArenaSide     float64        `json:"arena_side"`
	NormalRange   float64        `json:"normal_range"`
	Duration      float64        `json:"duration"`
	FloodRate     float64        `json:"flood_rate"`
	Seed          uint64         `json:"seed"`
	SnapshotEvery float64        `json:"snapshot_every,omitempty"`
	Radio         radio.Config   `json:"radio"`
	Channel       channel.Config `json:"channel"`

	// Fingerprint is the coordinator's Options.Fingerprint; workers
	// verify it against their own computation of the same.
	Fingerprint string `json:"fingerprint"`
	// Retries is the per-run panic-retry budget workers apply
	// (experiment.ComputeRunRetry), mirroring the in-process executor.
	Retries int `json:"retries"`
}

// JobFromOptions extracts the wire spec from resolved options.
func JobFromOptions(o experiment.Options, retries int) JobSpec {
	return JobSpec{
		N:             o.N,
		ArenaSide:     o.ArenaSide,
		NormalRange:   o.NormalRange,
		Duration:      o.Duration,
		FloodRate:     o.FloodRate,
		Seed:          o.Seed,
		SnapshotEvery: o.SnapshotEvery,
		Radio:         o.Radio,
		Channel:       o.Channel,
		Fingerprint:   o.Fingerprint(),
		Retries:       retries,
	}
}

// Options reconstructs the experiment options a worker computes runs
// under. Task-set-shape fields (Speeds, Buffers, Reps) are irrelevant to
// single-run execution and stay zero, and the engine knobs (Domains,
// EngineWorkers) are the worker's own.
func (j JobSpec) Options() experiment.Options {
	return experiment.Options{
		N:             j.N,
		ArenaSide:     j.ArenaSide,
		NormalRange:   j.NormalRange,
		Duration:      j.Duration,
		FloodRate:     j.FloodRate,
		Seed:          j.Seed,
		SnapshotEvery: j.SnapshotEvery,
		Radio:         j.Radio,
		Channel:       j.Channel,
	}
}

// Task is one leased run: the coordinator's stable task index plus the
// run itself.
type Task struct {
	ID  int            `json:"id"`
	Run experiment.Run `json:"run"`
}

// LeaseRequest asks for a batch of work.
type LeaseRequest struct {
	// Worker is a self-chosen stable name, used for status/events only.
	Worker string `json:"worker"`
}

// LeaseReply carries a granted lease, a backoff hint, or completion.
// Exactly one of the three shapes is populated:
//
//   - Tasks non-empty: a lease with the given ID and TTL.
//   - Wait true: no grantable work right now (everything pending is
//     leased to other workers); retry after WaitSeconds.
//   - Done true: the sweep is complete, the worker should exit.
type LeaseReply struct {
	Lease      uint64  `json:"lease,omitempty"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	Tasks      []Task  `json:"tasks,omitempty"`

	Wait        bool    `json:"wait,omitempty"`
	WaitSeconds float64 `json:"wait_seconds,omitempty"`

	Done bool `json:"done,omitempty"`
}

// HeartbeatRequest renews a lease's deadline.
type HeartbeatRequest struct {
	Lease uint64 `json:"lease"`
}

// Outcome is one computed task: a result, or a failure message when the
// worker's retry budget was exhausted.
type Outcome struct {
	Task     int           `json:"task"`
	Attempts int           `json:"attempts"`
	Result   *manet.Result `json:"result,omitempty"`
	Failure  string        `json:"failure,omitempty"`
}

// CompleteRequest posts finished tasks. Partial completions are normal —
// workers post each task as it finishes, which doubles as a heartbeat.
type CompleteRequest struct {
	Lease    uint64    `json:"lease"`
	Worker   string    `json:"worker"`
	Outcomes []Outcome `json:"outcomes"`
}

// CompleteReply reports how each outcome was absorbed.
type CompleteReply struct {
	// Accepted counts outcomes journaled by this request.
	Accepted int `json:"accepted"`
	// Duplicate counts outcomes for tasks already journaled (a stolen
	// lease completed twice); they are ignored, not errors.
	Duplicate int `json:"duplicate"`
	// Done mirrors LeaseReply.Done so a completing worker learns the
	// sweep ended without another /lease round-trip.
	Done bool `json:"done,omitempty"`
}

// Status is the live coordinator state served at GET /status.
type Status struct {
	Fingerprint string `json:"fingerprint"`
	// Task counts. Hits counts tasks satisfied from the store when the
	// daemon started.
	Total   int `json:"total"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Leased  int `json:"leased"`
	Pending int `json:"pending"`
	Hits    int `json:"hits"`
	// Computed counts runs journaled by workers this session.
	Computed int `json:"computed"`
	// Workers is the number of distinct worker names seen.
	Workers int `json:"workers"`
	// Throughput and ETA, from the injected clock. Zero until the first
	// completion.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RunsPerSecond  float64 `json:"runs_per_second"`
	ETASeconds     float64 `json:"eta_seconds"`
	// Complete is true once every task is journaled (done or failed).
	Complete bool `json:"complete"`
	// Store is the live per-fingerprint record summary, in the same
	// encoding `sweepctl status -json` emits for an offline store.
	Store FingerprintSummary `json:"store"`
}

// Event is one NDJSON line of the GET /events stream.
type Event struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"` // grant, complete, failure, expire, done
	// UnixMillis is the coordinator clock's timestamp.
	UnixMillis int64  `json:"unix_ms"`
	Worker     string `json:"worker,omitempty"`
	Lease      uint64 `json:"lease,omitempty"`
	// Task is the task index for per-task events (-1 otherwise: 0 is a
	// valid index).
	Task int    `json:"task"`
	Desc string `json:"desc,omitempty"`
	// Done/Total snapshot overall progress at the event.
	Done  int `json:"done"`
	Total int `json:"total"`
}
