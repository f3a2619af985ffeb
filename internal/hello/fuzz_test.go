package hello

import (
	"slices"
	"testing"

	"mstc/internal/geom"
)

// refTable is the reference model FuzzTable checks Table against: the
// dense per-sender-slot semantics the simulator ran on before tables were
// sized to the neighborhood — one history per id in [0, n), never
// reclaimed, scanned in id order.
type refTable struct {
	k      int
	expiry float64
	dense  [][]Message
	ver    uint64
}

func newRefTable(k int, expiry float64, n int) *refTable {
	return &refTable{k: k, expiry: expiry, dense: make([][]Message, n)}
}

func (r *refTable) live(h []Message, now float64) bool {
	return len(h) > 0 && (r.expiry <= 0 || now-h[0].SentAt <= r.expiry)
}

func (r *refTable) Observe(msg Message) {
	h := r.dense[msg.From]
	idx := 0
	for idx < len(h) && h[idx].Version > msg.Version {
		idx++
	}
	switch {
	case idx < len(h) && h[idx].Version == msg.Version:
		h[idx] = msg
	case len(h) < r.k:
		h = slices.Insert(h, idx, msg)
	case idx < r.k:
		copy(h[idx+1:], h[idx:r.k-1])
		h[idx] = msg
	default:
		return
	}
	r.ver++
	r.dense[msg.From] = h
}

func (r *refTable) Forget(id int) {
	if len(r.dense[id]) > 0 {
		r.ver++
	}
	r.dense[id] = nil
}

func (r *refTable) Reset(expiry float64) {
	r.expiry = expiry
	r.ver++
	clear(r.dense)
}

func (r *refTable) GC(now float64) int {
	dropped := 0
	for id, h := range r.dense {
		if len(h) > 0 && !r.live(h, now) {
			r.dense[id] = nil
			dropped++
		}
	}
	if dropped > 0 {
		r.ver++
	}
	return dropped
}

func (r *refTable) Len() int {
	n := 0
	for _, h := range r.dense {
		if len(h) > 0 {
			n++
		}
	}
	return n
}

// view is every query's answer at one instant.
type view struct {
	latest, versioned, asOf []Message
	hist                    [][]Message
	histories               []Message // HistoriesInto: the live hist, concatenated
}

// probeVersions are the versions Versioned and AsOf are asked about.
func probeVersions() [6]uint64 { return [...]uint64{0, 1, 3, 7, 12, 24} }

func (r *refTable) view(now float64) view {
	var v view
	for _, h := range r.dense {
		if r.live(h, now) {
			v.latest = append(v.latest, h[0])
		}
	}
	for _, pv := range probeVersions() {
		for _, h := range r.dense {
			if !r.live(h, now) {
				continue
			}
			if i := slices.IndexFunc(h, func(m Message) bool { return m.Version == pv }); i >= 0 {
				v.versioned = append(v.versioned, h[i])
			}
			if i := slices.IndexFunc(h, func(m Message) bool { return m.Version <= pv }); i >= 0 {
				v.asOf = append(v.asOf, h[i])
			}
		}
	}
	for _, h := range r.dense {
		var hv []Message
		if r.live(h, now) {
			hv = h
		}
		v.hist = append(v.hist, slices.Clone(hv))
		v.histories = append(v.histories, hv...)
	}
	return v
}

func tableView(t *Table, now float64, n int) view {
	var v view
	v.latest = t.LatestInto(nil, now)
	for _, pv := range probeVersions() {
		v.versioned = t.VersionedInto(v.versioned, pv, now)
		v.asOf = t.AsOfInto(v.asOf, pv, now)
	}
	for id := 0; id < n; id++ {
		v.hist = append(v.hist, t.HistoryInto(nil, id, now))
	}
	v.histories = t.HistoriesInto(nil, now)
	return v
}

func sameView(a, b view) bool {
	if !slices.Equal(a.latest, b.latest) || !slices.Equal(a.versioned, b.versioned) ||
		!slices.Equal(a.asOf, b.asOf) || !slices.Equal(a.histories, b.histories) || len(a.hist) != len(b.hist) {
		return false
	}
	for i := range a.hist {
		if !slices.Equal(a.hist[i], b.hist[i]) {
			return false
		}
	}
	return true
}

// Fuzz op codes: each op is four bytes, [code, a, b, c].
const (
	opObserve = iota // sender a, version 1+b%24, send delay c%8 * 0.1 s
	opAdvance        // now += a%16 * 0.25 s
	opForget         // sender a
	opGC             //
	opReset          // lifetime expiry(a)
	numOps
)

// expiry maps a fuzz byte to a table lifetime; 0 disables expiry.
func expiry(b byte) float64 { return [...]float64{0, 1, 2.5}[b%3] }

// FuzzTable drives Table and the dense reference model through the same
// random op sequence — Observe with out-of-order and duplicate versions,
// Forget, GC, Reset, and time advancing monotonically — and after every op
// checks that every query (Latest, Versioned, AsOf, History, Histories) answers
// identically, that Len and GC agree (exactly for k > 1; for k = 1 up to
// reclaimed expired histories), and that Version bumps on every visible
// change (exactly as the reference's does for k > 1). Sender versions are given send times that never run backwards
// (a late, lower version carries its earlier send time), the simulator's
// own precondition for reclaim.
//
// `go test` runs the seed corpus; `go test -fuzz=FuzzTable` explores
// further.
func FuzzTable(f *testing.F) {
	obs := func(s, v, delay byte) []byte { return []byte{opObserve, s, v - 1, delay} }
	adv := func(quarters byte) []byte { return []byte{opAdvance, quarters, 0, 0} }
	seq := func(ops ...[]byte) []byte { return slices.Concat(ops...) }

	// k = 3: sender 0 sends v6 and v7, expires along with three others,
	// a new sender fills the table past capacity, and sender 0 returns
	// with v20 — History must still read [v20 v7 v6].
	f.Add(byte(2), byte(2), seq(
		obs(0, 6, 0), obs(0, 7, 0), obs(1, 1, 0), obs(2, 1, 0), obs(3, 1, 0),
		adv(12), obs(4, 1, 0), obs(0, 20, 0), adv(1)))
	// k = 1 reclaim: four senders fill the table, expire, and a fifth
	// arrives; sender 0 then replays a stale version (invisible) before a
	// newer one.
	f.Add(byte(0), byte(2), seq(
		obs(0, 2, 0), obs(1, 2, 0), obs(2, 1, 0), obs(3, 1, 0),
		adv(12), obs(4, 1, 0), obs(0, 1, 5), adv(1), obs(0, 3, 2), adv(2)))
	// k = 1 partial reclaim: of four senders only the three older ones
	// have expired when a fifth arrives; the fourth must survive.
	f.Add(byte(0), byte(2), seq(
		obs(0, 1, 0), obs(1, 1, 0), obs(2, 1, 0), adv(4), obs(3, 1, 0),
		adv(8), obs(4, 1, 0), adv(1)))
	// Out-of-order and duplicate versions, Forget, GC and Reset, on the
	// preallocated (NewTablesN) form.
	f.Add(byte(1), byte(4), seq(
		obs(5, 3, 1), obs(5, 1, 3), obs(5, 3, 7), obs(40, 2, 0), obs(5, 2, 2),
		adv(3), []byte{opForget, 40, 0, 0}, obs(7, 9, 0), adv(9),
		[]byte{opGC, 0, 0, 0}, obs(7, 10, 1), []byte{opReset, 1, 0, 0}, obs(5, 4, 0)))

	f.Fuzz(func(t *testing.T, kb, cfg byte, ops []byte) {
		// Every op is checked against a full view of both tables; longer
		// sequences only slow the fuzzer (and its minimizer) down.
		ops = ops[:min(len(ops), 4*128)]
		k := 1 + int(kb%3)
		n := 12
		var tb *Table
		if cfg/3%2 == 1 {
			n = 48 // above the preallocated window: exercises growth
			tb = NewTablesN(k, expiry(cfg), n, 1)[0]
		} else {
			tb = NewTable(k, expiry(cfg))
		}
		ref := newRefTable(k, expiry(cfg), n)

		// sent[s][v] is the send time given to sender s's version v
		// (negative until first sent; the clock starts late enough that
		// every send time is positive).
		const maxVer = 24
		sent := make([][maxVer + 1]float64, n)
		for s := range sent {
			for v := range sent[s] {
				sent[s][v] = -1
			}
		}
		now := 10.0

		for len(ops) >= 4 {
			code, a, b, c := ops[0]%numOps, ops[1], ops[2], ops[3]
			ops = ops[4:]
			before := ref.view(now)
			refVer, tbVer := ref.ver, tb.Version()
			switch code {
			case opObserve:
				s, v := int(a)%n, 1+int(b)%maxVer
				if sent[s][v] < 0 {
					// Clamp the send time between the sender's lower and
					// higher versions: a late low version was sent early.
					at := now - float64(c%8)*0.1
					for u := 1; u < v; u++ {
						if sent[s][u] >= 0 {
							at = max(at, sent[s][u])
						}
					}
					for u := maxVer; u > v; u-- {
						if sent[s][u] >= 0 {
							at = min(at, sent[s][u])
						}
					}
					sent[s][v] = at
				}
				msg := Message{From: s, Pos: geom.Pt(float64(c), float64(v)), SentAt: sent[s][v], Version: uint64(v)}
				ref.Observe(msg)
				tb.Observe(msg)
			case opAdvance:
				now += float64(a%16) * 0.25
			case opForget:
				id := int(a) % n
				ref.Forget(id)
				tb.Forget(id)
			case opGC:
				want, got := ref.GC(now), tb.GC(now)
				if got > want || (k > 1 && got != want) {
					t.Fatalf("k=%d GC(%v) dropped %d, reference %d", k, now, got, want)
				}
				if tb.Len() != ref.Len() {
					t.Fatalf("Len after GC = %d, reference %d", tb.Len(), ref.Len())
				}
			case opReset:
				ref.Reset(expiry(a))
				tb.Reset(expiry(a))
			}

			want := ref.view(now)
			got := tableView(tb, now, n)
			if !sameView(got, want) {
				t.Fatalf("k=%d op %d at %v: table %+v, reference %+v", k, code, now, got, want)
			}
			refBumped, tbBumped := ref.ver != refVer, tb.Version() != tbVer
			if k > 1 && refBumped != tbBumped {
				t.Fatalf("k=%d op %d: Version bumped %v, reference %v", k, code, tbBumped, refBumped)
			}
			if refBumped && !tbBumped && !sameView(before, want) {
				t.Fatalf("k=%d op %d: visible change without a Version bump", k, code)
			}
			if k > 1 && tb.Len() != ref.Len() {
				t.Fatalf("k=%d Len = %d, reference %d", k, tb.Len(), ref.Len())
			}
			if k == 1 && (tb.Len() > ref.Len() || tb.Len() < len(want.latest)) {
				t.Fatalf("k=1 Len = %d outside [live %d, reference %d]", tb.Len(), len(want.latest), ref.Len())
			}
		}
	})
}
