package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mstc/internal/experiment"
)

// FuzzHandler posts one arbitrary body to each of the coordinator's POST
// endpoints — /lease, /heartbeat and /complete, in that order, on a fresh
// two-task coordinator — through httptest.NewRecorder, so no server or
// connection goroutine is started per input. The handlers must not panic,
// must answer with a status the API defines for them, and must leave the
// coordinator's state untouched when they refuse a body (400 or 413).
func FuzzHandler(f *testing.F) {
	f.Add([]byte(`{"worker":"w"}`))
	f.Add([]byte(`{"lease":1}`))
	f.Add([]byte(`{"lease":1,"worker":"w","outcomes":[{"task":0,"attempts":1,"result":{"Connectivity":0.5}}]}`))
	f.Add([]byte(`{"lease":1,"worker":"w","outcomes":[{"task":1,"attempts":2,"failure":"panic"}]}`))
	f.Add([]byte(`{"worker":"w","bogus":1}`))
	f.Add([]byte(`{"lease":1,"worker":"w","outc`))
	f.Add([]byte(`{"worker":"` + strings.Repeat("x", maxBodyBytes) + `"}`))
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusNoContent: true, http.StatusBadRequest: true,
		http.StatusGone: true, http.StatusRequestEntityTooLarge: true, http.StatusInternalServerError: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
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
		h := c.Handler()
		for _, path := range []string{"/lease", "/heartbeat", "/complete"} {
			// %+v rather than JSON: fuzzed connectivities may fold to a
			// non-finite mean, which JSON cannot encode.
			before := fmt.Sprintf("%+v", c.Status())
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			code := rec.Code
			if !allowed[code] {
				t.Fatalf("POST %s: status %d, body %q", path, code, rec.Body.String())
			}
			if code == http.StatusBadRequest || code == http.StatusRequestEntityTooLarge {
				if after := fmt.Sprintf("%+v", c.Status()); after != before {
					t.Fatalf("POST %s refused with %d but changed the status:\nbefore %s\nafter  %s", path, code, before, after)
				}
			}
		}
	})
}
