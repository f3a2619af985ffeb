// Package radio models the wireless medium as an ideal disc: a transmission
// by node u at time t with transmission range r is received by exactly the
// nodes within distance r of u at time t — no collision and no contention,
// matching the paper's simulation setup ("all simulations use an ideal MAC
// layer without collision and contention", §5.1).
//
// The medium has no faults of its own. Reception loss and per-hop delay
// belong to the non-ideal channel (internal/channel): Transmit passes each
// in-range receiver through the attached channel's loss chains, and the
// network adds the channel's delays. Receiver and degree queries are the
// ideal disc on either engine.
//
// # Bounded-staleness spatial index
//
// "Hello" beacons are asynchronous, so every transmission queries the
// medium at a unique instant; an exact-instant position cache never hits
// and each query would pay a full O(n) position sweep plus a grid rebuild.
// Instead the medium reuses a grid built at some earlier instant t0 and
// keeps queries exact by the same bounded-displacement argument as the
// paper's buffer zone (Theorem 5, l = 2·Δ″·v): within Δ = t−t0 seconds no
// pair of nodes changes relative distance by more than 2·vmax·Δ, so a disc
// query of radius r at time t is a subset of the stale grid's candidates at
// radius r + 2·vmax·Δ. The same bound works inward: the sender's position
// is exact and a candidate has moved at most vmax·Δ since the build, so
// one indexed well inside r − vmax·Δ is certainly a receiver
// (InnerRadius2). Only the candidates in the annulus between the two discs
// are filtered by their exact positions at t, making the receiver set
// identical — bit for bit — to a freshly built grid's. The grid is rebuilt
// only once the inflation 2·vmax·Δ exceeds a slack budget (one grid cell
// by default), turning the per-event cost from O(n) into O(neighborhood)
// amortized.
//
// Metric samples ask for every node's physical degree at one instant.
// Degree defines it once for both engines: the nodes within r of the
// sender on an index of exact positions at the sample instant, counted
// without building a list. The serial engine
// asks DegreesAt, which rebuilds the medium's grid exactly at the sample
// instant and counts each node's disc without inflation; with samples at
// 10 Hz those rebuilds keep the grid fresh enough that the slack-driven
// rebuild rarely fires. The region-parallel engine counts on its own
// snapshot index instead, split by domain, and leaves the medium's grid
// alone. Receiver sets are unchanged either way.
package radio

import (
	"mstc/internal/channel"
	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/spatial"
	"mstc/internal/xrand"
)

// cell is the spatial-index cell size in meters: half the paper's
// normal transmission range.
const cell = 125

// Config parameterizes a Medium.
type Config struct {
	// Slack is the bounded-staleness budget in meters: the grid is
	// reused as long as the query-radius inflation 2·vmax·(t−t0) stays
	// within it. 0 (the default) means one grid cell; a negative value
	// disables staleness entirely and rebuilds per distinct instant (the
	// exact-instant reference behavior, kept for differential tests).
	// Receiver sets are independent of Slack by construction — the knob
	// trades grid rebuilds against candidate filtering, never results.
	Slack float64
}

func (c *Config) setDefaults() {
	if c.Slack == 0 { //lint:ignore float-eq zero value is the unset sentinel, exact by construction
		c.Slack = cell
	}
}

// Medium is the shared wireless channel. It serves receiver queries from a
// bounded-staleness spatial grid (see the package comment): queries at
// instants close to the last grid build reuse it with an inflated search
// radius and exact-position filtering, so results never depend on the cache
// state. A Medium is single-goroutine, like the Engine that drives it.
type Medium struct {
	model mobility.Model
	cur   *mobility.Cursor
	cfg   Config
	vmax  float64

	// bounded-staleness grid state
	grid    *spatial.Index
	gridPos []geom.Point // positions the grid was built from (at gridAt)
	gridAt  float64
	gridOK  bool
	cand    []int // scratch for inflated-radius candidates
	marks   IDSet // receiver marks, empty between queries

	// per-instant memoized exact positions: repeated queries at the same
	// instant (candidate filtering, metric sweeps) reuse the cursor's
	// answer instead of re-evaluating the trajectory. stamp[id] == epoch
	// marks exact[id] as computed at lastT.
	exact []geom.Point
	stamp []uint64
	epoch uint64
	lastT float64

	// ch is the attached non-ideal channel (nil = ideal). Transmissions —
	// and only transmissions — pass through its loss chains; geometric
	// queries (ReceiversAt, DegreesAt) stay loss-free so metrics and
	// effective-topology snapshots measure the radio, not the channel.
	ch *channel.Model
}

// NewMedium builds a medium over the mobility model. The source argument
// is ignored: the ideal disc draws no randomness. It stays in the
// signature for callers that still pass one.
func NewMedium(model mobility.Model, cfg Config, _ *xrand.Source) (*Medium, error) {
	cfg.setDefaults()
	grid, err := spatial.NewIndex(model.Arena(), cell)
	if err != nil {
		return nil, err
	}
	return &Medium{
		model:   model,
		cur:     mobility.NewCursor(model),
		cfg:     cfg,
		vmax:    model.MaxSpeed(),
		grid:    grid,
		gridPos: make([]geom.Point, model.N()),
		exact:   make([]geom.Point, model.N()),
		stamp:   make([]uint64, model.N()),
		epoch:   1,
		cand:    make([]int, 0, 64),
		marks:   NewIDSet(model.N()),
	}, nil
}

// SetChannel attaches a non-ideal channel model. A nil model (the default)
// is the ideal channel: Transmit consumes no channel randomness and the
// medium behaves exactly as it did before the channel subsystem existed.
func (m *Medium) SetChannel(ch *channel.Model) { m.ch = ch }

// Channel returns the attached channel model (nil = ideal).
func (m *Medium) Channel() *channel.Model { return m.ch }

// N returns the node count.
func (m *Medium) N() int { return m.model.N() }

// posAt returns node id's exact position at t through the per-instant memo:
// the first query at a new instant advances the epoch, later queries for the
// same id at the same instant are a stamp check and an array load.
func (m *Medium) posAt(id int, t float64) geom.Point {
	if t != m.lastT { //lint:ignore float-eq cache key: same simulated instant, exact by construction
		m.epoch++
		m.lastT = t
	}
	if m.stamp[id] == m.epoch {
		return m.exact[id]
	}
	p := m.cur.PositionAt(id, t)
	m.exact[id] = p
	m.stamp[id] = m.epoch
	return p
}

// PositionAt returns node id's position at time t (single query, served by
// the medium's monotone leg cursor behind the per-instant memo).
func (m *Medium) PositionAt(id int, t float64) geom.Point {
	return m.posAt(id, t)
}

// inflation returns the query-radius inflation that makes the grid built at
// gridAt exact for a query at t: 2·vmax·(t−gridAt), the maximal relative
// displacement of any node pair over the staleness window (the buffer-zone
// displacement bound of Theorem 5).
func (m *Medium) inflation(t float64) float64 {
	return 2 * m.vmax * (t - m.gridAt)
}

// InnerRadius2 returns the squared radius of the inner disc of a receiver
// query of range r over positions indexed up to disp meters away from where
// the candidates are now, with the sender's position exact: a candidate
// whose indexed squared distance from the sender is at most the returned
// value is within r at the query instant, so its exact position need not be
// resolved. It is -1, which no squared distance meets, when disp leaves no
// inner disc.
//
// By the triangle inequality the true distance is at most the indexed one
// plus disp, so (r − disp)² would do in exact arithmetic; the margin ε =
// 1e-6 m + 1e-9·r keeps the shortcut inside the exact test dist² ≤ r²
// under floating point. Leg interpolation, Dist2 and the disp product each
// err by a few units in the last place: a relative 1e-15 on d², disp and
// r, and an absolute 1e-15·|x| per coordinate x, under 1e-6 m for any
// arena within 1e9 m of the origin. ε exceeds their sum, so every candidate
// the shortcut admits would pass the exact test too and the receiver set is
// the exact one bit for bit. The bound itself is the buffer-zone
// displacement bound (Theorem 5): no node moves faster than
// Model.MaxSpeed, which TestMaxSpeedBoundsDisplacement pins per model.
func InnerRadius2(r, disp float64) float64 {
	in := r - disp - (1e-6 + 1e-9*r)
	if in <= 0 {
		return -1
	}
	return in * in
}

// ensureGrid makes the grid usable for a query at time t: it rebuilds when
// there is no grid yet, when t precedes the build instant, or when the
// staleness inflation would exceed the slack budget.
func (m *Medium) ensureGrid(t float64) {
	if m.gridOK {
		if m.cfg.Slack < 0 {
			// Staleness disabled: reuse only at the exact build instant.
			if t == m.gridAt { //lint:ignore float-eq cache key: grid was built at exactly this simulated instant
				return
			}
		} else if t >= m.gridAt && m.inflation(t) <= m.cfg.Slack {
			return
		}
	}
	m.buildGrid(t)
}

// buildGrid indexes every node's exact position at t, filling the posAt
// memo on the way.
func (m *Medium) buildGrid(t float64) {
	for id := range m.gridPos {
		m.gridPos[id] = m.posAt(id, t)
	}
	m.grid.Build(m.gridPos)
	m.gridAt = t
	m.gridOK = true
}

// ReceiversAt appends to dst the nodes that receive a transmission sent by
// sender at time t with range r: every node other than the sender within
// distance r at t. Results ascend by id.
//
//manet:noalloc
func (m *Medium) ReceiversAt(t float64, sender int, r float64, dst []int) []int {
	if r <= 0 {
		return dst
	}
	m.ensureGrid(t)
	p := m.posAt(sender, t)
	m.cand = m.grid.WithinUnsorted(p, r+m.inflation(t), m.cand[:0])
	r2 := r * r
	in2 := InnerRadius2(r, m.vmax*(t-m.gridAt))
	for _, id := range m.cand {
		if id == sender {
			continue
		}
		// The grid was built at gridAt ≤ t (ensureGrid) and the sender's
		// position is exact, so a candidate indexed inside the inner disc
		// is a receiver. The rest take the exact test over true positions
		// at t, the one a fresh grid performs, so the receiver set is
		// identical either way.
		if m.gridPos[id].Dist2(p) <= in2 || m.posAt(id, t).Dist2(p) <= r2 {
			m.marks.Add(id)
		}
	}
	// Candidates arrive in cell-scan order; the mark set hands the
	// receivers back in ascending-id order.
	return m.marks.AppendSorted(dst)
}

// Transmit appends to dst the receivers of a transmission by sender at time
// t with range r. Without an attached channel it is ReceiversAt; with a
// non-ideal one (SetChannel), each in-range receiver additionally passes
// through its per-receiver loss chain, in ascending-id order, and dropped
// receivers are removed from the returned set.
func (m *Medium) Transmit(t float64, sender int, r float64, dst []int) []int {
	start := len(dst)
	dst = m.ReceiversAt(t, sender, r, dst)
	if m.ch.LossEnabled() {
		kept := m.ch.FilterLost(dst[start:])
		dst = dst[:start+len(kept)]
	}
	return dst
}

// DegreesAt appends to deg, for every node id, the number of receivers of
// a transmission id would send at time t with range ranges[id]: the count
// len(ReceiversAt(t, id, ranges[id], nil)) without building the set. It
// rebuilds the grid at exactly t and counts each node's disc with Degree,
// over the same positions and the same dist² ≤ r² test ReceiversAt uses,
// so the counts are identical by construction. One call serves a whole
// metric sample; the fresh grid also serves the transmissions that follow
// it with a smaller inflation.
//
//manet:noalloc
func (m *Medium) DegreesAt(t float64, ranges []float64, deg []int) []int {
	if !m.gridOK || t != m.gridAt { //lint:ignore float-eq cache key: grid was built at exactly this simulated instant
		m.buildGrid(t)
	}
	for id, r := range ranges {
		deg = append(deg, Degree(m.grid, m.gridPos[id], r))
	}
	return deg
}

// Degree is the one definition of a physical degree, shared by both
// engines' metric samples: the number of other nodes within r of p, counted
// on an index ix that holds every node's exact position at one instant,
// the sender's own at p. That is ix.CountWithin(p, r) − 1, for the sender
// is indexed at distance 0. A range r ≤ 0 reaches no one. Safe for
// concurrent use: ix is only read.
//
//manet:noalloc
func Degree(ix *spatial.Index, p geom.Point, r float64) int {
	if !(r > 0) {
		return 0
	}
	return ix.CountWithin(p, r) - 1
}
