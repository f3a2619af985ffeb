package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mstc/internal/experiment"
)

// startServer serves c through NewServer, the daemon's configuration;
// adjust, if non-nil, edits that configuration before the server starts.
func startServer(t *testing.T, c *Coordinator, adjust func(*http.Server)) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = NewServer(c)
	if adjust != nil {
		adjust(ts.Config)
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func statusJSON(t *testing.T, c *Coordinator) string {
	t.Helper()
	data, err := json.Marshal(c.Status())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHandlerRoutes: each route Handler documents answers its method, any
// other method gets 405, and an undocumented path gets 404. Every row runs
// on a fresh two-task coordinator; /events gets an already-cancelled
// request so its stream ends at once.
func TestHandlerRoutes(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/job", "", http.StatusOK},
		{http.MethodPost, "/job", "{}", http.StatusMethodNotAllowed},
		{http.MethodPost, "/lease", `{"worker":"w"}`, http.StatusOK},
		{http.MethodGet, "/lease", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/heartbeat", `{"lease":7}`, http.StatusGone},
		{http.MethodGet, "/heartbeat", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/complete", `{"lease":7,"worker":"w"}`, http.StatusOK},
		{http.MethodPut, "/complete", `{"lease":7,"worker":"w"}`, http.StatusMethodNotAllowed},
		{http.MethodGet, "/status", "", http.StatusOK},
		{http.MethodPost, "/status", "{}", http.StatusMethodNotAllowed},
		{http.MethodGet, "/events", "", http.StatusOK},
		{http.MethodPost, "/events", "{}", http.StatusMethodNotAllowed},
		{http.MethodGet, "/aggregate", "", http.StatusNotFound},
	} {
		c, err := New(Config{
			Options: experiment.DefaultOptions(),
			Tasks:   repTasks(2, 40),
			Store:   testStore(t),
			Clock:   newFakeClock().Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d (%q)", tc.method, tc.path, rec.Code, tc.want, rec.Body.String())
		}
		if tc.path == "/status" && rec.Code == http.StatusOK {
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &fields); err != nil {
				t.Fatalf("GET /status: %v", err)
			}
			if _, ok := fields["store"]; !ok {
				t.Errorf("GET /status has no store summary: %s", rec.Body.String())
			}
			if _, ok := fields["configs"]; ok {
				t.Errorf("GET /status still has a configs key: %s", rec.Body.String())
			}
		}
	}
}

// TestCompleteRejectsOversizedBody: a /complete body past the cap is
// answered 413 and journals nothing; the same outcome at normal size is
// then accepted, so the refusal was the size and nothing else.
func TestCompleteRejectsOversizedBody(t *testing.T) {
	t.Parallel()
	c, err := New(Config{
		Options:    experiment.DefaultOptions(),
		Tasks:      repTasks(2, 40),
		Store:      testStore(t),
		Clock:      newFakeClock().Now,
		LeaseTTL:   time.Minute,
		LeaseBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, c, nil)
	lease := c.Lease(LeaseRequest{Worker: "a"})
	if len(lease.Tasks) != 1 {
		t.Fatalf("lease reply = %+v, want 1 task", lease)
	}
	before := statusJSON(t, c)

	huge := CompleteRequest{Lease: lease.Lease, Worker: "a", Outcomes: []Outcome{{
		Task: lease.Tasks[0].ID, Attempts: 1, Result: result(0.5),
		Failure: strings.Repeat("x", maxBodyBytes),
	}}}
	if resp := postJSON(t, ts.URL+"/complete", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /complete: status %d, want 413", resp.StatusCode)
	}
	if after := statusJSON(t, c); after != before {
		t.Fatalf("oversized /complete changed coordinator state:\nbefore %s\nafter  %s", before, after)
	}

	ok := huge
	ok.Outcomes = []Outcome{{Task: lease.Tasks[0].ID, Attempts: 1, Result: result(0.5)}}
	resp := postJSON(t, ts.URL+"/complete", ok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal /complete: status %d, want 200", resp.StatusCode)
	}
	var rep CompleteReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1 {
		t.Errorf("normal /complete accepted %d outcomes, want 1", rep.Accepted)
	}
}

// TestServerCutsStalledHeaders: a client that sends part of its request
// headers and then goes silent is disconnected by the header timeout,
// while other clients are still served.
func TestServerCutsStalledHeaders(t *testing.T) {
	t.Parallel()
	c, err := New(Config{
		Options: experiment.DefaultOptions(),
		Tasks:   repTasks(1, 40),
		Store:   testStore(t),
		Clock:   newFakeClock().Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, c, nil)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /status HTTP/1.1\r\nHost: fleet\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v; header timeout is %v", elapsed, readHeaderTimeout)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Errorf("stalled client cut after %v, before the %v header timeout could fire", elapsed, readHeaderTimeout)
	}

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/status after the stalled client: %d, want 200", resp.StatusCode)
	}
}

// TestEventsOutlivesReadTimeout: an /events subscriber still receives
// events, and the closing "done" line, after the server's ReadTimeout has
// passed. Without the handler lifting its read deadline, net/http cancels
// the request context at ReadTimeout and the stream ends early.
func TestEventsOutlivesReadTimeout(t *testing.T) {
	t.Parallel()
	c, err := New(Config{
		Options:    experiment.DefaultOptions(),
		Tasks:      repTasks(1, 40),
		Store:      testStore(t),
		Clock:      newFakeClock().Now,
		LeaseTTL:   time.Minute,
		LeaseBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const readTimeout = time.Second
	ts := startServer(t, c, func(s *http.Server) { s.ReadTimeout = readTimeout })

	client := &http.Client{Timeout: readTimeout + 10*time.Second}
	resp, err := client.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The handler subscribes before it sends the headers, so every event
	// from here on reaches this stream.
	time.Sleep(readTimeout + readTimeout/2)

	lease := c.Lease(LeaseRequest{Worker: "a"})
	if len(lease.Tasks) != 1 {
		t.Fatalf("lease reply = %+v, want 1 task", lease)
	}
	rep, err := c.Complete(CompleteRequest{Lease: lease.Lease, Worker: "a", Outcomes: []Outcome{
		{Task: lease.Tasks[0].ID, Attempts: 1, Result: result(0.5)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done {
		t.Fatalf("completion = %+v, want Done", rep)
	}

	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading /events: %v (events so far %v)", err, types)
	}
	if want := []string{"grant", "complete", "done"}; strings.Join(types, " ") != strings.Join(want, " ") {
		t.Errorf("events after the read timeout = %v, want %v", types, want)
	}
}
