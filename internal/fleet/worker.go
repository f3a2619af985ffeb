package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/manet"
)

// Worker is the client side of the lease protocol: a loop that leases
// task batches, computes them with the in-process executor's single-run
// path, and posts each outcome as it finishes (which doubles as a lease
// heartbeat). It holds no state a crash could lose — everything durable
// lives in the coordinator's store — so killing a worker mid-lease
// costs at most one lease TTL of waiting before the work is stolen.
type Worker struct {
	// URL is the coordinator's base URL, e.g. "http://127.0.0.1:7070".
	URL string
	// Name identifies the worker in status/events output.
	Name string
	// Client is the HTTP client; nil means a default with a 30 s
	// request timeout.
	Client *http.Client
	// Sleep pauses between polls when the coordinator has no grantable
	// work. Injected so the package itself never touches the wall
	// clock; cmd binaries pass time.Sleep.
	Sleep func(time.Duration)
	// Logf, when non-nil, receives progress lines (stderr in the CLIs).
	Logf func(format string, args ...any)
	// Domains and EngineWorkers select the engine every run of this
	// worker uses (experiment.Options); they never change a result.
	Domains, EngineWorkers int
}

// Run executes the worker loop until the coordinator reports the sweep
// complete. It returns an error on protocol failures (unreachable
// coordinator, fingerprint mismatch, invalid engine knobs), never on
// individual run failures — those are journaled as failure records and
// the loop continues.
func (w *Worker) Run() error {
	// Bad engine knobs would fail every run this worker leases; refuse
	// them before asking the coordinator for anything.
	if err := manet.ValidateEngine(w.Domains, w.EngineWorkers); err != nil {
		return fmt.Errorf("fleet: worker engine: %w", err)
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.Sleep == nil {
		return fmt.Errorf("fleet: worker requires a Sleep function")
	}
	if w.Name == "" {
		w.Name = "worker"
	}

	var job JobSpec
	if err := w.get("/job", &job); err != nil {
		return fmt.Errorf("fleet: fetch job spec: %w", err)
	}
	opts := job.Options()
	opts.Domains, opts.EngineWorkers = w.Domains, w.EngineWorkers
	// Version-skew guard: the fingerprint covers every result-affecting
	// option, so a worker whose binary computes a different fingerprint
	// from the same spec would journal records under a wrong address —
	// refuse instead.
	if got := opts.Fingerprint(); got != job.Fingerprint {
		return fmt.Errorf("fleet: fingerprint mismatch: coordinator %s, worker computes %s (binary/version skew?)",
			job.Fingerprint, got)
	}
	w.logf("job %s: %d nodes, %.0fs runs, retries=%d", job.Fingerprint, job.N, job.Duration, job.Retries)

	computed := 0
	idle := false
	for {
		var rep LeaseReply
		if err := w.post("/lease", LeaseRequest{Worker: w.Name}, &rep); err != nil {
			// A coordinator with -exit-on-done may vanish while this worker
			// slept through the end of the sweep (everything left was leased
			// elsewhere and the last holder finished). The coordinator owns
			// all durable state, so there is nothing to hand back — exit
			// cleanly. A transport error in any other position stays fatal.
			if idle && isConnError(err) {
				w.logf("coordinator gone while idle; assuming the sweep ended (%d runs computed here)", computed)
				return nil
			}
			return fmt.Errorf("fleet: lease: %w", err)
		}
		switch {
		case rep.Done:
			w.logf("sweep complete (%d runs computed here)", computed)
			return nil
		case len(rep.Tasks) == 0:
			idle = true
			wait := time.Duration(rep.WaitSeconds * float64(time.Second))
			if wait <= 0 {
				wait = time.Second
			}
			w.Sleep(wait)
			continue
		}
		idle = false

		for i, task := range rep.Tasks {
			// Re-assert the lease before every run after the first: if it
			// was stolen (e.g. this worker stalled), stop burning time on
			// work someone else owns.
			if i > 0 {
				alive, err := w.heartbeat(rep.Lease)
				if err != nil {
					return fmt.Errorf("fleet: heartbeat: %w", err)
				}
				if !alive {
					w.logf("lease %d lost; re-leasing", rep.Lease)
					break
				}
			}
			out := w.compute(opts, job.Retries, task)
			var crep CompleteReply
			if err := w.post("/complete", CompleteRequest{
				Lease: rep.Lease, Worker: w.Name, Outcomes: []Outcome{out},
			}, &crep); err != nil {
				return fmt.Errorf("fleet: complete: %w", err)
			}
			computed++
			if crep.Duplicate > 0 {
				w.logf("%s: duplicate (stolen lease completed twice); result matched by determinism", task.Run.Desc())
			}
			if crep.Done {
				w.logf("sweep complete (%d runs computed here)", computed)
				return nil
			}
		}
	}
}

// compute runs one task under the executor's retry policy and shapes
// the outcome for the wire.
func (w *Worker) compute(opts experiment.Options, retries int, task Task) Outcome {
	res, attempts, err := experiment.ComputeRunRetry(opts, task.Run, retries)
	if err != nil {
		w.logf("%s: FAILED after %d attempts: %v", task.Run.Desc(), attempts, err)
		return Outcome{Task: task.ID, Attempts: attempts, Failure: err.Error()}
	}
	w.logf("%s: done (attempt %d)", task.Run.Desc(), attempts)
	r := res // copy: the pointer must not alias the loop variable
	return Outcome{Task: task.ID, Attempts: attempts, Result: &r}
}

// heartbeat renews the lease; false means gone (stolen/expired).
func (w *Worker) heartbeat(lease uint64) (bool, error) {
	resp, err := w.do(http.MethodPost, "/heartbeat", HeartbeatRequest{Lease: lease})
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		return true, nil
	case http.StatusGone:
		return false, nil
	default:
		return false, fmt.Errorf("heartbeat: unexpected status %s", resp.Status)
	}
}

func (w *Worker) get(path string, out any) error {
	resp, err := w.Client.Get(w.URL + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func (w *Worker) post(path string, in, out any) error {
	resp, err := w.do(http.MethodPost, path, in)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

func (w *Worker) do(method, path string, in any) (*http.Response, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(method, w.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.Client.Do(req)
}

// isConnError reports whether err is a transport-level failure (dial or
// I/O) rather than an HTTP-status error from the coordinator.
func isConnError(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}
