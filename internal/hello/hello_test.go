package hello

import (
	"reflect"
	"testing"
	"testing/quick"

	"mstc/internal/geom"
	"mstc/internal/xrand"
)

func msg(from int, x float64, at float64, ver uint64) Message {
	return Message{From: from, Pos: geom.Pt(x, 0), SentAt: at, Version: ver}
}

func TestObserveAndLatest(t *testing.T) {
	tb := NewTable(2, 2.5)
	tb.Observe(msg(3, 10, 1.0, 1))
	tb.Observe(msg(1, 20, 1.1, 1))
	tb.Observe(msg(3, 11, 2.0, 2))
	got := tb.Latest(2.5)
	if len(got) != 2 {
		t.Fatalf("Latest = %v", got)
	}
	if got[0].From != 1 || got[1].From != 3 {
		t.Errorf("order wrong: %v", got)
	}
	if got[1].Version != 2 || got[1].Pos != geom.Pt(11, 0) {
		t.Errorf("newest entry wrong: %+v", got[1])
	}
}

func TestHistoryDepthK(t *testing.T) {
	tb := NewTable(2, 0)
	for v := uint64(1); v <= 5; v++ {
		tb.Observe(msg(7, float64(v), float64(v), v))
	}
	h := tb.History(7, 100)
	if len(h) != 2 {
		t.Fatalf("history length = %d, want 2", len(h))
	}
	if h[0].Version != 5 || h[1].Version != 4 {
		t.Errorf("kept versions %d, %d; want 5, 4", h[0].Version, h[1].Version)
	}
}

func TestOutOfOrderObserve(t *testing.T) {
	tb := NewTable(3, 0)
	tb.Observe(msg(1, 3, 3, 3))
	tb.Observe(msg(1, 1, 1, 1))
	tb.Observe(msg(1, 2, 2, 2))
	h := tb.History(1, 10)
	vers := []uint64{h[0].Version, h[1].Version, h[2].Version}
	if !reflect.DeepEqual(vers, []uint64{3, 2, 1}) {
		t.Errorf("versions = %v, want [3 2 1]", vers)
	}
	// A late old version must not evict a newer one when full.
	tb2 := NewTable(2, 0)
	tb2.Observe(msg(1, 5, 5, 5))
	tb2.Observe(msg(1, 4, 4, 4))
	tb2.Observe(msg(1, 1, 1, 1)) // too old; dropped
	h2 := tb2.History(1, 10)
	if h2[0].Version != 5 || h2[1].Version != 4 {
		t.Errorf("old version evicted newer: %+v", h2)
	}
}

func TestDuplicateVersionReplaces(t *testing.T) {
	tb := NewTable(2, 0)
	tb.Observe(msg(1, 10, 1, 1))
	tb.Observe(msg(1, 99, 1.5, 1))
	h := tb.History(1, 10)
	if len(h) != 1 || h[0].Pos != geom.Pt(99, 0) {
		t.Errorf("duplicate version not replaced: %+v", h)
	}
}

func TestExpiry(t *testing.T) {
	tb := NewTable(1, 2.5)
	tb.Observe(msg(1, 10, 0, 1))
	tb.Observe(msg(2, 20, 2, 1))
	if got := tb.Latest(2.4); len(got) != 2 {
		t.Fatalf("both should be live at 2.4: %v", got)
	}
	got := tb.Latest(3.0) // node 1's message is 3.0 old > 2.5
	if len(got) != 1 || got[0].From != 2 {
		t.Errorf("Latest(3.0) = %v, want only node 2", got)
	}
	if h := tb.History(1, 3.0); h != nil {
		t.Errorf("expired history = %v, want nil", h)
	}
	if dropped := tb.GC(3.0); dropped != 1 {
		t.Errorf("GC dropped %d, want 1", dropped)
	}
	if tb.Len() != 1 {
		t.Errorf("Len after GC = %d", tb.Len())
	}
}

func TestNoExpiryWhenDisabled(t *testing.T) {
	tb := NewTable(1, 0)
	tb.Observe(msg(1, 10, 0, 1))
	if got := tb.Latest(1e9); len(got) != 1 {
		t.Errorf("expiry disabled but entry vanished")
	}
}

func TestVersioned(t *testing.T) {
	tb := NewTable(3, 0)
	tb.Observe(msg(1, 10, 1, 1))
	tb.Observe(msg(1, 11, 2, 2))
	tb.Observe(msg(2, 20, 1, 1))
	tb.Observe(msg(3, 30, 2, 2))
	got := tb.Versioned(1, 10)
	if len(got) != 2 || got[0].From != 1 || got[1].From != 2 {
		t.Errorf("Versioned(1) = %v", got)
	}
	if got[0].Pos != geom.Pt(10, 0) {
		t.Errorf("Versioned(1) returned wrong message for node 1: %+v", got[0])
	}
	got = tb.Versioned(2, 10)
	if len(got) != 2 || got[0].From != 1 || got[1].From != 3 {
		t.Errorf("Versioned(2) = %v", got)
	}
}

func TestAsOf(t *testing.T) {
	tb := NewTable(3, 0)
	tb.Observe(msg(1, 10, 1, 1))
	tb.Observe(msg(1, 12, 3, 3))
	tb.Observe(msg(2, 20, 2, 2))
	tb.Observe(msg(3, 30, 4, 4))

	got := tb.AsOf(2, 10)
	// node 1 resolves to version 1 (newest <= 2), node 2 to version 2,
	// node 3 has nothing <= 2.
	if len(got) != 2 {
		t.Fatalf("AsOf(2) = %v", got)
	}
	if got[0].From != 1 || got[0].Version != 1 {
		t.Errorf("node 1 resolved to %+v, want version 1", got[0])
	}
	if got[1].From != 2 || got[1].Version != 2 {
		t.Errorf("node 2 resolved to %+v, want version 2", got[1])
	}
	got = tb.AsOf(10, 10)
	if len(got) != 3 || got[0].Version != 3 || got[2].Version != 4 {
		t.Errorf("AsOf(10) = %v", got)
	}
	if got := tb.AsOf(0, 10); len(got) != 0 {
		t.Errorf("AsOf(0) = %v, want empty", got)
	}
}

func TestAsOfConsistencyAcrossTables(t *testing.T) {
	// Two observers holding different subsets that share versions <= v
	// resolve a sender to the same message — the Theorem 2 property the
	// proactive scheme relies on.
	a, b := NewTable(3, 0), NewTable(3, 0)
	m1, m2, m3 := msg(9, 1, 1, 1), msg(9, 2, 2, 2), msg(9, 3, 3, 3)
	for _, m := range []Message{m1, m2, m3} {
		a.Observe(m)
	}
	b.Observe(m2)
	b.Observe(m3)
	ra, rb := a.AsOf(2, 10), b.AsOf(2, 10)
	if len(ra) != 1 || len(rb) != 1 || !reflect.DeepEqual(ra[0], rb[0]) {
		t.Errorf("observers resolved differently: %v vs %v", ra, rb)
	}
}

func TestForget(t *testing.T) {
	tb := NewTable(1, 0)
	tb.Observe(msg(1, 10, 0, 1))
	tb.Forget(1)
	if tb.Len() != 0 || tb.History(1, 1) != nil {
		t.Error("Forget did not remove the neighbor")
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k = 0")
		}
	}()
	NewTable(0, 1)
}

func TestTablesNRejectOutOfRangeSender(t *testing.T) {
	for _, id := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic observing sender %d on a table for [0, 4)", id)
				}
			}()
			NewTablesN(1, 0, 4, 1)[0].Observe(msg(id, 0, 0, 1))
		}()
	}
}

func TestHistoryIsCopy(t *testing.T) {
	tb := NewTable(2, 0)
	tb.Observe(msg(1, 10, 0, 1))
	h := tb.History(1, 1)
	h[0].Pos = geom.Pt(-1, -1)
	if got := tb.History(1, 1); got[0].Pos != geom.Pt(10, 0) {
		t.Error("History exposed internal storage")
	}
}

func TestHistoryInvariantsProperty(t *testing.T) {
	// Whatever the arrival order, the table holds at most k messages per
	// neighbor, sorted by strictly descending version, and they are the
	// k highest versions observed.
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%4) + 1
		rng := xrand.New(seed)
		tb := NewTable(k, 0)
		maxVer := uint64(0)
		seen := map[uint64]bool{}
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			v := uint64(rng.Intn(15)) + 1
			seen[v] = true
			if v > maxVer {
				maxVer = v
			}
			tb.Observe(msg(1, float64(v), float64(i), v))
		}
		h := tb.History(1, 1e9)
		if len(h) > k {
			return false
		}
		for i := 1; i < len(h); i++ {
			if h[i].Version >= h[i-1].Version {
				return false
			}
		}
		// Highest observed version must be present.
		return len(h) > 0 && h[0].Version == maxVer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
