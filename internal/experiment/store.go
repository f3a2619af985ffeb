package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/debug"
	"sync/atomic"

	"mstc/internal/manet"
	"mstc/internal/sweep"
)

// This file is the glue between the experiment runner and the sweep
// subsystem (internal/sweep): the options fingerprint, the canonical run
// descriptor, and the store-aware execution path Execute dispatches to.
// Figures never talk to the store directly — they keep calling Sweep /
// Execute, which transparently reads stored runs and computes only the
// misses, so a warm store renders every figure with zero recomputation.

// Fingerprint identifies the option set a run's result depends on: a
// 16-byte sha256 prefix over a canonical binary encoding of every
// result-affecting Options field. Fields that provably cannot change a
// result are excluded, so records are shared across them:
//
//   - Workers and the Progress/Interrupt/Store/Retry plumbing
//     (determinism across worker counts is pinned by
//     TestDeterminismRegression),
//   - Radio, whose one field Slack is pinned by
//     TestDigestUnchangedByStalenessCache,
//   - Speeds, Buffers, and Reps, which shape the *task set* — per-run
//     results depend only on the Run fields, so raising Reps or adding a
//     speed reuses every already-stored run.
//
//manet:hashes Options
//manet:hash-exclude Radio the staleness slack never changes results, pinned by TestDigestUnchangedByStalenessCache
//manet:hash-exclude Workers determinism across worker counts is pinned by TestDeterminismRegression
//manet:hash-exclude Speeds task-set shape; per-run results depend only on Run fields
//manet:hash-exclude Buffers task-set shape; per-run results depend only on Run fields
//manet:hash-exclude Reps task-set shape; per-run results depend only on Run fields
//manet:hash-exclude NoSelectionCache has no effect; stays only until the bench module stops setting it
//manet:hash-exclude Domains region-parallel engine is bit-identical to serial, pinned by TestDigestUnchangedByEngineParallelism
//manet:hash-exclude EngineWorkers worker count never changes results, pinned by TestDigestUnchangedByEngineParallelism
//manet:hash-exclude Store storage backend choice cannot change what is computed
//manet:hash-exclude Retry retries replay the same deterministic run
//manet:hash-exclude Interrupt interruption stops dispatch; completed runs are unchanged
//manet:hash-exclude Progress reporting callback cannot affect results
func (o Options) Fingerprint() string {
	h := sha256.New()
	var b [8]byte
	word := func(w uint64) {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	f := func(x float64) { word(math.Float64bits(x)) }
	word(uint64(int64(o.N)))
	f(o.ArenaSide)
	f(o.NormalRange)
	f(o.Duration)
	f(o.FloodRate)
	word(o.Seed)
	// The retired radio cell size, delay, loss rate and airtime fields
	// stay as one zero word each, so store addresses stay put.
	for range 4 {
		word(0)
	}
	// The retired loss-model, burst-loss and churn fields likewise stay
	// as zero words.
	word(0)
	f(o.Channel.Loss.Rate)
	for range 3 {
		word(0)
	}
	f(o.Channel.Delay.Min)
	f(o.Channel.Delay.Max)
	word(0)
	word(0)
	f(o.SnapshotEvery)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// desc renders the canonical run descriptor stored inside each record.
// Get compares it byte-for-byte against the requesting task, so even a
// full hash collision on the record address degrades to a cache miss.
func (r Run) desc() string {
	// The mechanisms are written out field by field in the layout %+v gave
	// the struct when it still had two more flags; the retired ones are
	// always false. %g is what %v prints for a float64.
	m := r.Mech
	d := fmt.Sprintf("%s speed=%g rep=%d mech={Buffer:%g ViewSync:%t PhysicalNeighbors:%t WeakK:%d Reactive:%t CDSForward:false SelfPruning:false Proactive:%t}",
		r.Protocol, r.Speed, r.Rep, m.Buffer, m.ViewSync, m.PhysicalNeighbors, m.WeakK, m.Reactive, m.Proactive)
	if r.Channel.Enabled() {
		// The channel too is written field by field, in the layout %+v
		// gave it when it still had a loss model, burst-loss parameters
		// and churn. Every configuration that survives held bernoulli and
		// zeros there.
		c := r.Channel
		d += fmt.Sprintf(" chan={Loss:{Model:bernoulli Rate:%g MeanBurst:0 GoodLoss:0 BadLoss:0} Delay:{Min:%g Max:%g} Churn:{MeanUp:0 MeanDown:0}}",
			c.Loss.Rate, c.Delay.Min, c.Delay.Max)
	}
	if r.Traffic.Enabled() {
		d += fmt.Sprintf(" traffic=%+v", r.Traffic)
	}
	if r.Unicast.Rate > 0 {
		d += fmt.Sprintf(" unicast=%+v", r.Unicast)
	}
	return d
}

// storeKey addresses the run's record under the given options fingerprint.
func (r Run) storeKey(fp string) sweep.Key {
	return sweep.Key{Fingerprint: fp, Run: r.key(), Rep: r.Rep}
}

// recoverRun invokes f up to 1+retries times, converting panics into
// errors (with the first panic's stack attached). Non-panic errors are
// deterministic configuration errors and are never retried. attempts
// reports how many executions happened.
func recoverRun(retries int, f func() (manet.Result, error)) (res manet.Result, attempts int, err error) {
	if retries < 0 {
		retries = 0
	}
	for attempts = 1; ; attempts++ {
		var panicked bool
		res, err = func() (res manet.Result, err error) {
			defer func() {
				if p := recover(); p != nil {
					panicked = true
					err = fmt.Errorf("run panicked: %v\n%s", p, debug.Stack())
				}
			}()
			return f()
		}()
		if !panicked || attempts > retries {
			return res, attempts, err
		}
	}
}

// checkpointEvery is how many completions pass between advisory
// checkpoint flushes. The per-record journal is flushed on *every*
// completion regardless; this only paces the progress summary.
const checkpointEvery = 32

// executeAll is the single execution path behind Execute: it resolves
// store hits, fans the remaining tasks over the worker pool with panic
// recovery and a bounded retry budget, journals completions, and honors
// the graceful-interrupt hook.
func executeAll(o Options, tasks []Run) ([]manet.Result, error) {
	results := make([]manet.Result, len(tasks))
	keys := make([]sweep.Key, len(tasks))
	var pending []int

	if o.Store != nil {
		fp := o.Fingerprint()
		for i, t := range tasks {
			keys[i] = t.storeKey(fp)
			if res, ok := o.Store.Get(keys[i], t.desc()); ok {
				results[i] = res
				continue
			}
			pending = append(pending, i)
		}
	} else {
		pending = make([]int, len(tasks))
		for i := range tasks {
			pending[i] = i
		}
	}

	errs := make([]error, len(tasks))
	var done atomic.Int64
	var interrupted atomic.Bool
	total := len(pending)
	forEachTask(o.Workers, len(pending), func(j int) {
		i := pending[j]
		if o.Interrupt != nil && o.Interrupt() {
			interrupted.Store(true)
			return
		}
		t := tasks[i]
		res, attempts, err := recoverRun(o.Retry, func() (manet.Result, error) {
			return executeOne(o, t)
		})
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", t.desc(), err)
			if o.Store != nil {
				if perr := o.Store.PutFailure(keys[i], t.desc(), attempts, err.Error()); perr != nil {
					errs[i] = fmt.Errorf("%v (and journaling the failure failed: %v)", errs[i], perr)
				}
			}
			return
		}
		results[i] = res
		if o.Store != nil {
			if perr := o.Store.Put(keys[i], t.desc(), attempts, res); perr != nil {
				errs[i] = perr
				return
			}
		}
		n := done.Add(1)
		if o.Store != nil && n%checkpointEvery == 0 {
			// Advisory; the per-record journal already holds the truth.
			_ = o.Store.WriteCheckpoint(sweep.Checkpoint{
				Fingerprint: keys[i].Fingerprint, Done: int(n), Total: total,
			})
		}
		if o.Progress != nil {
			o.Progress(int(n), total)
		}
	})

	if o.Store != nil && total > 0 {
		fp := keys[pending[0]].Fingerprint
		_ = o.Store.WriteCheckpoint(sweep.Checkpoint{
			Fingerprint: fp, Done: int(done.Load()), Total: total, Interrupted: interrupted.Load(),
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if interrupted.Load() {
		return nil, fmt.Errorf("%d of %d runs remaining (in-flight runs journaled): %w",
			total-int(done.Load()), total, sweep.ErrInterrupted)
	}
	return results, nil
}
