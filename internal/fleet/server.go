package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxBodyBytes caps a request body. Workers post one outcome per
// /complete, a few kilobytes of JSON, so 1 MiB is ample; a larger body is
// refused with 413 before any of it reaches coordinator state.
const maxBodyBytes = 1 << 20

// Server timeouts (see NewServer).
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer returns an http.Server for c's Handler with header, request and
// idle-connection read timeouts, so a client that stalls mid-request or
// parks an idle connection cannot hold a connection goroutine forever.
// There is no WriteTimeout, and /events clears its connection's read
// deadline: the stream lasts for as long as the sweep runs.
func NewServer(c *Coordinator) *http.Server {
	return &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Handler returns the coordinator's HTTP API:
//
//	GET  /job        JobSpec (options, fingerprint, retry budget)
//	POST /lease      LeaseRequest -> LeaseReply
//	POST /heartbeat  HeartbeatRequest -> 204, or 410 Gone when the lease expired
//	POST /complete   CompleteRequest -> CompleteReply
//	GET  /status     Status
//	GET  /events     NDJSON event stream until the sweep completes
//
// Handlers run on net/http's per-connection goroutines; the coordinator
// mutex is the synchronization point.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/job", func(w http.ResponseWriter, r *http.Request) {
		if !method(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, c.Job())
	})
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Lease(req))
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		if !c.Heartbeat(req) {
			http.Error(w, "lease expired or unknown", http.StatusGone)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !readJSON(w, r, &req) {
			return
		}
		rep, err := c.Complete(req)
		if err != nil {
			// Store write failures and malformed outcomes; the worker
			// retries or reports.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if !method(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, c.Status())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if !method(w, r, http.MethodGet) {
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		// Clear the connection's read deadline (ReadTimeout) for the
		// stream. net/http's background read, which cancels the request
		// context when the client goes away, would also cancel it if that
		// deadline expired, ending the stream mid-sweep. Current net/http
		// clears the deadline before that read, but does not document it.
		// A client that disconnects still ends the stream.
		_ = http.NewResponseController(w).SetReadDeadline(time.Time{})
		ch, cancel := c.Subscribe()
		defer cancel()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
		for {
			select {
			case line, ok := <-ch:
				if !ok {
					return // sweep complete
				}
				if _, err := w.Write(line); err != nil {
					return
				}
				flusher.Flush()
			case <-r.Context().Done():
				return
			}
		}
	})
	return mux
}

func method(w http.ResponseWriter, r *http.Request, want string) bool {
	if r.Method != want {
		http.Error(w, fmt.Sprintf("method %s not allowed", r.Method), http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
