// Package hello implements the "Hello" beaconing data structures: versioned,
// timestamped location advertisements and the per-node neighbor table that
// stores the k most recent messages from every neighbor (§4.2, Theorem 3:
// k = ceil(delta/Delta) + 1 recent messages suffice for weakly consistent
// views; k = 1 gives the plain latest-message table of the baselines).
//
// The table is pure bookkeeping — no simulation clocks — so it is unit
// testable in isolation; package manet drives it from the event loop.
package hello

import (
	"fmt"

	"mstc/internal/geom"
)

// Message is one "Hello" advertisement: a node's id, the position it
// advertises, the send timestamp, and a per-sender version number
// (1 for the sender's first message, incrementing by 1). Payload is the
// optional 2-hop gossip, nil unless the run's routing layer (OLSR)
// reads it; keeping it behind one pointer keeps the stored message at
// 48 bytes on flood-only runs.
type Message struct {
	From    int
	Pos     geom.Point
	SentAt  float64
	Version uint64
	Payload *Payload
}

// Payload is the 2-hop gossip an OLSR "Hello" carries: the sender's
// logical neighbors and the multipoint relays it selected among them — a
// receiver listed in MPRs knows the sender is one of its MPR selectors. A
// payload is shared by every receiver's stored copy of the message and is
// never mutated after sending.
type Payload struct {
	Neighbors []int
	MPRs      []int
}

// Table is one node's neighbor table. It stores up to K recent messages per
// neighbor (newest first) and expires neighbors whose newest message is
// older than Expiry.
//
// Storage is sized to the neighborhood, not the id universe: an id-sorted
// vector with one entry per sender heard (binary search on Observe, scans
// in ascending id order) and a parallel message vector holding k slots per
// entry. A sender's history keeps its slots until it is forgotten, collected
// or reclaimed, so a sender that expires and returns still resolves its old
// versions (AsOf, History) exactly as before it left.
//
// Reclaim: with k = 1 a stored history that is expired at the send instant
// of an incoming message from a new sender is dropped when room is needed
// for it. A message is observed no earlier than it was sent, queries run
// at non-decreasing instants, and a sender never sends a lower version
// after a higher one (all hold for any simulation clock), so such a
// history stays invisible to every later query and the sender's next
// newer message would replace it whole — dropping it early changes no
// answer. With k > 1 the
// history's older versions would survive that next message, so expired
// histories are kept.
type Table struct {
	k      int
	expiry float64
	n      int       // sender ids lie in [0, n); -1 when unbounded (NewTable)
	ents   []entry   // one per stored history, ascending by sender id
	msgs   []Message // k slots per entry: entry i owns msgs[i*k : (i+1)*k]
	ver    uint64    // monotone mutation counter (see Version)
}

// entry is one sender's stored history: its newest n messages, newest
// first, in the entry's k message slots.
type entry struct {
	from int
	n    int
}

// windowCap is the per-table entry capacity NewTablesN preallocates. At
// the paper's density a node has ~20-25 nodes in range, and about 31
// senders live within the expiry window at 40 m/s, so most k = 1 tables
// never outgrow the window. A table that does reallocates storage of its
// own.
const windowCap = 48

// NewTable creates a table keeping k >= 1 recent messages per neighbor;
// entries expire once their newest message is older than expiry seconds
// (expiry <= 0 disables expiry). Storage grows on demand.
func NewTable(k int, expiry float64) *Table {
	if k < 1 {
		panic(fmt.Sprintf("hello: table with k = %d", k))
	}
	return &Table{k: k, expiry: expiry, n: -1}
}

// NewTablesN returns count tables for sender ids in [0, n) with
// bulk-allocated shared backing: every table gets a fixed window of
// min(n, windowCap) entries cut from two shared arrays — O(1) allocations
// for the whole batch instead of O(count). This is the per-node table set
// of a simulation. A table outgrowing its window reallocates its own
// storage (never a neighbor's window, and never from shared allocator
// state, so tables of different nodes can be written concurrently).
// Observing a sender id outside [0, n) panics.
func NewTablesN(k int, expiry float64, n, count int) []*Table {
	if k < 1 {
		panic(fmt.Sprintf("hello: table with k = %d", k))
	}
	if n < 0 || count < 0 {
		panic(fmt.Sprintf("hello: tables with n = %d, count = %d", n, count))
	}
	w := min(n, windowCap)
	tables := make([]Table, count)
	out := make([]*Table, count)
	ents := make([]entry, count*w)
	msgs := make([]Message, count*w*k)
	for c := range tables {
		t := &tables[c]
		t.k, t.expiry, t.n = k, expiry, n
		t.ents = ents[c*w : c*w : (c+1)*w]
		t.msgs = msgs[c*w*k : c*w*k : (c+1)*w*k]
		out[c] = t
	}
	return out
}

// Version returns the table's monotone mutation counter: it increases on
// every visible state change (message stored or replaced, neighbor
// forgotten, expired entry collected, reset) and never otherwise. A caller
// that remembers it can tell in O(1) whether the table moved since; OLSR's
// link-state check uses it to skip recomputing unchanged routes.
func (t *Table) Version() uint64 { return t.ver }

// Reset drops all stored state in place and sets a (possibly new) expiry,
// reusing the table's backing storage. Unlike constructing a fresh table,
// Reset keeps the mutation counter monotone, so a Version remembered from
// before the reset can never match the post-reset state.
func (t *Table) Reset(expiry float64) {
	t.expiry = expiry
	t.ver++
	clear(t.msgs) // drop payload references
	t.ents, t.msgs = t.ents[:0], t.msgs[:0]
}

// find returns the index of id's entry, or the index it would be inserted
// at and false.
func (t *Table) find(id int) (int, bool) {
	lo, hi := 0, len(t.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.ents[mid].from < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.ents) && t.ents[lo].from == id
}

// history returns entry i's stored (possibly expired) messages, newest
// first, capped at the entry's k slots.
func (t *Table) history(i int) []Message {
	return t.msgs[i*t.k : i*t.k+t.ents[i].n : (i+1)*t.k]
}

// insert opens an empty entry for id at index i, reclaiming histories
// expired at the given send instant (k = 1) before growing the storage. It
// returns the entry's index, which reclaim may have shifted.
func (t *Table) insert(i, id int, sentAt float64) int {
	if len(t.ents) == cap(t.ents) && t.reclaim(sentAt) {
		i, _ = t.find(id)
	}
	if len(t.ents) == cap(t.ents) {
		t.grow()
	}
	k := t.k
	t.ents = t.ents[:len(t.ents)+1]
	copy(t.ents[i+1:], t.ents[i:])
	t.ents[i] = entry{from: id}
	t.msgs = t.msgs[:len(t.msgs)+k]
	copy(t.msgs[(i+1)*k:], t.msgs[i*k:])
	return i
}

// grow doubles the entry capacity into storage of the table's own.
func (t *Table) grow() {
	c := max(2*cap(t.ents), 4)
	ents := make([]entry, len(t.ents), c)
	copy(ents, t.ents)
	msgs := make([]Message, len(t.msgs), c*t.k)
	copy(msgs, t.msgs)
	t.ents, t.msgs = ents, msgs
}

// remove compacts away the entries whose keep reports false and returns
// how many went. The vacated message slots are zeroed to drop payload
// references.
func (t *Table) remove(keep func(i int) bool) int {
	k, w := t.k, 0
	for i := range t.ents {
		if !keep(i) {
			continue
		}
		if w != i {
			t.ents[w] = t.ents[i]
			copy(t.msgs[w*k:(w+1)*k], t.msgs[i*k:(i+1)*k])
		}
		w++
	}
	dropped := len(t.ents) - w
	clear(t.msgs[w*k:])
	t.ents, t.msgs = t.ents[:w], t.msgs[:w*k]
	return dropped
}

// reclaim drops the histories expired at the given instant when that is
// invisible (k = 1, see Table) and reports whether any went. It does not
// bump Version: no query can tell.
func (t *Table) reclaim(at float64) bool {
	if t.k != 1 || t.expiry <= 0 {
		return false
	}
	return t.remove(func(i int) bool { return t.live(i, at) }) > 0
}

// Observe records a received message, evicting the oldest stored message
// from the same sender beyond the history depth. Messages may arrive out
// of order; the table keeps the k highest versions. A duplicate version
// replaces the stored copy.
func (t *Table) Observe(msg Message) {
	i, ok := t.find(msg.From)
	if !ok {
		if t.n >= 0 && uint(msg.From) >= uint(t.n) {
			panic(fmt.Sprintf("hello: sender %d outside [0, %d)", msg.From, t.n))
		}
		i = t.insert(i, msg.From, msg.SentAt)
	}
	h := t.history(i)
	// Insert by descending version. Linear scan: h holds at most k entries
	// (small), so this beats sort.Search's closure calls on the hot path.
	idx := 0
	for idx < len(h) && h[idx].Version > msg.Version {
		idx++
	}
	switch {
	case idx < len(h) && h[idx].Version == msg.Version:
		h[idx] = msg // duplicate version: replace in place
	case len(h) < t.k:
		h = h[:len(h)+1]
		copy(h[idx+1:], h[idx:])
		h[idx] = msg
		t.ents[i].n++
	case idx < t.k:
		// Full history: shift the tail right in place, dropping the
		// lowest stored version.
		copy(h[idx+1:], h[idx:t.k-1])
		h[idx] = msg
	default:
		return // older than all k stored versions of a full history
	}
	t.ver++
}

// Forget removes all state for the given neighbor.
func (t *Table) Forget(id int) {
	if _, ok := t.find(id); ok {
		t.ver++
		t.remove(func(i int) bool { return t.ents[i].from != id })
	}
}

// Len returns the number of neighbors with at least one stored message:
// live ones, plus expired ones not yet collected (GC) or reclaimed.
func (t *Table) Len() int { return len(t.ents) }

// live reports whether entry i is unexpired at the given time.
func (t *Table) live(i int, now float64) bool {
	return t.expiry <= 0 || now-t.msgs[i*t.k].SentAt <= t.expiry
}

// Latest returns the newest stored message per live neighbor, ascending by
// neighbor id.
func (t *Table) Latest(now float64) []Message {
	return t.LatestInto(make([]Message, 0, t.Len()), now)
}

// LatestInto is Latest appending into dst (which may be nil), for hot paths
// that reuse a scratch buffer across calls. Appended entries ascend by
// neighbor id; dst's existing contents are untouched.
//
//manet:noalloc
func (t *Table) LatestInto(dst []Message, now float64) []Message {
	for i := range t.ents {
		if t.live(i, now) {
			dst = append(dst, t.msgs[i*t.k])
		}
	}
	return dst
}

// History returns up to k stored messages for the given neighbor, newest
// first, or nil if the neighbor is absent or expired.
func (t *Table) History(id int, now float64) []Message {
	return t.HistoryInto(nil, id, now)
}

// HistoryInto is History appending into dst (which may be nil); it appends
// nothing when the neighbor is absent or expired.
//
//manet:noalloc
func (t *Table) HistoryInto(dst []Message, id int, now float64) []Message {
	i, ok := t.find(id)
	if !ok || !t.live(i, now) {
		return dst
	}
	return append(dst, t.history(i)...)
}

// HistoriesInto appends the stored history of every live neighbor, newest
// first, in ascending neighbor id order: what LatestInto followed by
// HistoryInto for each neighbor it lists would append, in one pass over
// the table. A neighbor's messages are adjacent and share From.
//
//manet:noalloc
func (t *Table) HistoriesInto(dst []Message, now float64) []Message {
	for i := range t.ents {
		if t.live(i, now) {
			dst = append(dst, t.history(i)...)
		}
	}
	return dst
}

// Versioned returns, per live neighbor, the stored message with exactly the
// given version, ascending by neighbor id. Neighbors lacking that version
// are omitted — this is the lookup the proactive strong-consistency scheme
// performs when a data packet pins a timestamp (§4.1).
func (t *Table) Versioned(version uint64, now float64) []Message {
	return t.VersionedInto(make([]Message, 0, t.Len()), version, now)
}

// VersionedInto is Versioned appending into dst (which may be nil).
//
//manet:noalloc
func (t *Table) VersionedInto(dst []Message, version uint64, now float64) []Message {
	for i := range t.ents {
		if !t.live(i, now) {
			continue
		}
		for _, msg := range t.history(i) {
			if msg.Version == version {
				dst = append(dst, msg)
				break
			}
		}
	}
	return dst
}

// AsOf returns, per live neighbor, the newest stored message with version
// at most v, ascending by neighbor id. Neighbors with no such version are
// omitted. This is the lookup behind the proactive strong-consistency
// scheme (§4.1): all nodes relaying a packet pinned to version v resolve
// each neighbor to the *same* message, so their local views are consistent
// in the sense of Theorem 2.
func (t *Table) AsOf(v uint64, now float64) []Message {
	return t.AsOfInto(make([]Message, 0, t.Len()), v, now)
}

// AsOfInto is AsOf appending into dst (which may be nil).
//
//manet:noalloc
func (t *Table) AsOfInto(dst []Message, v uint64, now float64) []Message {
	for i := range t.ents {
		if !t.live(i, now) {
			continue
		}
		// The history is sorted by descending version; pick the first <= v.
		for _, msg := range t.history(i) {
			if msg.Version <= v {
				dst = append(dst, msg)
				break
			}
		}
	}
	return dst
}

// GC drops neighbors whose newest message is expired and returns how many
// were dropped.
func (t *Table) GC(now float64) int {
	dropped := t.remove(func(i int) bool { return t.live(i, now) })
	if dropped > 0 {
		t.ver++
	}
	return dropped
}
