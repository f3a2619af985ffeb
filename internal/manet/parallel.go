package manet

// Region-parallel execution. The arena is decomposed into a grid of
// spatial domains (radio.DomainGrid); simulated time advances in
// synchronization windows bounded by W = guard/(2·vmax) — the bounded-
// displacement horizon within which a snapshot's domain assignments plus a
// guard halo provably cover every receiver (the same argument as the radio
// medium's staleness grid and the paper's buffer zone, Theorem 5).
//
// Every snapshot (window start, or a fence-time flood transmit past the
// window) resolves all positions once, re-indexes them in a spatial grid
// and assigns owners. Receiver scans — a beacon's or a flood transmit's,
// in each domain its halo reaches — query that grid instead of resolving
// every owned node: within Δ of the snapshot no node has moved more than
// vmax·Δ, so a query of radius r + vmax·Δ around the sender's exact
// position, clipped to the domain's owned nodes' bounding box, holds every
// owned receiver. The same bound makes a candidate indexed deep inside r a
// receiver outright, and the exact-distance filter over positions at the
// transmit instant settles the rest, keeping exactly the serial radio's
// set (see receivers).
//
// Inside a window the dispatcher (the calling goroutine) advances a merged
// timeline of four item kinds, interleaving serial steps with parallel
// barrier passes over the domains:
//
//   - Beacons. Dispatched serially in segments: all beacons due up to the
//     next boundary (flood reception, settle pass, or window end) generate
//     helloRecords — sender-side bookkeeping (version numbers, own
//     history, advertised position, counters, position noise) runs here,
//     per node in beacon order. Records are merged into (time, sender)
//     order — the serial event order, since each sender beacons at most
//     once per instant — queued to every domain their halo disc can
//     reach, and processed by a segment barrier: each domain runs the
//     snapshot-grid receiver scan per record (exact-distance filter,
//     per-receiver channel loss chains), then delivers
//     (or, under channel delay, defers) and re-selects the sender in its
//     owner domain. Dispatch never outruns the processing horizon, so
//     anything the dispatcher reads at a boundary instant — a flood
//     forwarder's advertised position, its own-advertisement history — is
//     exactly the state the serial engine would see there.
//   - Deferred receptions. Under channel delay each reception becomes a
//     (deliver-at, seq) entry on its receiver's owner-domain sim.Heap,
//     drained by the same segment barriers in time order. seq reproduces
//     the serial scheduling order (window, dispatch-sorted record index,
//     receiver id), and pending entries are re-homed to current owners at
//     every snapshot, so ownership churn never strands a delivery.
//   - Settle passes (reactive scheme). Each round dispatched queues one
//     settle item; at its instant a barrier pass re-selects every node
//     from the round's version. Segments stop at settle boundaries, so a
//     later round can never overwrite the advertised positions the pass
//     must read.
//   - Flood receptions. Flood forwarding runs on a dispatcher-owned
//     global (time, seq) sim.Heap. The dispatcher pops the earliest
//     reception, resolves acceptance serially (Network.accept, as the
//     serial delivery.Act does), and on a forward runs the sender side
//     serially (Network.sendPreamble, counters) followed
//     by one scan barrier: every domain runs the same snapshot-grid
//     receiver scan (a domain beside the sender's disc finds no cells to
//     scan) and emits accepting receivers to a per-domain outbox with
//     their keyed delivery delays.
//     Outboxes merge in ascending receiver order — the serial
//     per-transmit schedule order — onto the global heap. Every random
//     component of a flood reception (channel loss chains, forward
//     jitter, channel delay) is either a pure function
//     of the reception's identity or a per-receiver chain advanced in
//     chronological order, so the heap replays the serial engine's
//     delivery schedule exactly.
//
// Between windows the event engine drains everything else — flood
// originations and scoring fences, strict-connectivity snapshots —
// exactly as the serial engine would. A metric sample is a fence event
// too, but it is not drained serially: it takes the ownership snapshot at
// its instant and counts every node's physical degree in one barrier pass,
// each domain over its owned nodes on the snapshot index (the serial
// DegreesAt's count, radio.Medium.Degree), and the window that starts at
// the fence reuses that snapshot.
//
// Results are bit-identical to the serial engine for any worker count and
// any domain grid; the experiment-level differential matrix in
// parallel_test.go proves it under the race detector. The only documented
// divergence is measure-zero: events at exactly equal float timestamps are
// merged by a fixed priority (engine-first at fences, then beacons, then
// deferred receptions, then settles, then flood receptions) instead of the
// serial engine's scheduling sequence number, which can only matter when
// two independent continuous random draws collide exactly.

import (
	"math"
	"sort"

	"mstc/internal/geom"
	"mstc/internal/hello"
	"mstc/internal/mobility"
	"mstc/internal/radio"
	"mstc/internal/sim"
	"mstc/internal/spatial"
)

// helloRecord is one dispatched beacon: the send instant, the sender, its
// exact transmit position, and the message as advertised (possibly noisy).
type helloRecord struct {
	at      float64
	sender  int
	truePos geom.Point
	msg     hello.Message
}

// settleItem is one pending reactive settle pass: at its instant every
// node re-selects from the round's common version.
type settleItem struct {
	at  float64
	ver uint64
}

// floodOut is one entry of a domain's flood-scan outbox: an accepting
// receiver with its resolved delivery instant.
type floodOut struct {
	at  float64
	rid int
}

// Barrier modes: what processDomain does on the next pool.Barrier.
const (
	modeSegment   = iota // drain the domain timeline (records + deferred) up to segH
	modeSettle           // reactive settle pass over owned nodes
	modeFloodScan        // receiver scan for the current flood transmit
	modeSample           // physical-degree count of the owned nodes at sampleAt
)

// domainCtx is the per-domain mutable state: a private position cursor, a
// private selection context (scratch + cursor-backed position source), the
// bounding box of the owned nodes' snapshot positions, the candidate and
// receiver scratch lists, the deferred-reception heap, and the flood-scan
// outbox. Nothing in it is ever touched by another domain's worker.
//
// A deferred reception's seq orders equal-instant deliveries exactly as the
// serial engine's scheduling sequence would: creation is chronological
// across windows (high bits), across the window's (time, sender)-sorted
// records (middle bits), and ascending by receiver within a record (low
// bits).
type domainCtx struct {
	cur   *mobility.Cursor
	sel   selCtx
	box   geom.Rect // owned snapshot positions' bounding box (empty if none)
	cand  []int
	recv  []int
	marks radio.IDSet         // receiver marks, empty between scans
	del   sim.Heap[helloRecv] // deferred receptions
	fout  []floodOut          // flood-scan outbox
	qi    int                 // cursor into pr.queues[d]
	deg   int                 // owned nodes' physical-degree sum of the last sample
}

// parRun is one region-parallel execution of Network.Run.
type parRun struct {
	nw   *Network
	grid *radio.DomainGrid
	pool *sim.Regions

	cur  *mobility.Cursor // dispatcher-owned cursor (snapshots + senders)
	doms []domainCtx

	nextHello []float64 // per-node next beacon instant (serial Every chain)
	nextDue   float64   // next undispatched beacon/round instant
	records   []helloRecord
	sortBase  int            // records[sortBase:] is the batch being sorted
	gRec      int            // records before gRec are processed
	posT      []geom.Point   // snapshot positions (batched resolve)
	index     *spatial.Index // grid over posT, rebuilt with every snapshot
	domainOf  []int          // snapshot ownership per node
	owned     [][]int        // per-domain owned node ids, ascending
	queues    [][]int32      // per-domain record indices, dispatch order

	reactive  bool    // reactive scheme: rounds + settle passes
	roundIvl  float64 // common round interval
	nextRound float64
	round     uint64
	settles   []settleItem
	setIdx    int // settles before setIdx are processed
	setAt     float64
	setVer    uint64

	// Pending flood receptions. (at, seq) reproduces the serial delivery
	// order: seq is assigned in transmit order, ascending by receiver
	// within a transmit.
	fheap sim.Heap[floodRecv]
	fseq  uint64

	mode    int
	segH    float64 // segment horizon
	segIncl bool    // segment includes items at exactly segH

	scanFl     *flood
	scanSender int
	scanAt     float64
	scanPos    geom.Point
	scanR      float64

	sampleAt float64 // instant of the current metric sample

	rehome []sim.Entry[helloRecv] // snapshot re-homing scratch
	fmerge []floodOut             // flood outbox merge scratch

	windowSeq uint64  // monotone window counter (deferred-reception seq high bits)
	snapAt    float64 // time of the last ownership snapshot
	snapped   bool

	window float64 // synchronization window length W (may be +Inf)
	haloR  float64 // NormalRange + grid guard
	vmax   float64 // maximum node speed (receiver-scan inflation)
	t      float64 // parallel clock: hellos before t are processed
}

// newParRun builds the per-run parallel state. The per-node first beacons
// are the serial scheduler's (firstBeacon), so hello timing is
// bit-identical between engines.
func (nw *Network) newParRun() *parRun {
	n := len(nw.nodes)
	grid := nw.domGrid
	doms := grid.Domains()
	// Any cell size gives the same scans. Half the normal range keeps a
	// receiver query to a few cells; the floor at 1/2048 of the arena's
	// longer side keeps a tiny range from cutting it into millions.
	arena := nw.model.Arena()
	cell := math.Max(nw.cfg.NormalRange/2, math.Max(arena.Width(), arena.Height())/2048)
	pr := &parRun{
		nw:        nw,
		grid:      grid,
		cur:       mobility.NewCursor(nw.model),
		doms:      make([]domainCtx, doms),
		nextHello: make([]float64, n),
		nextDue:   math.Inf(1),
		posT:      make([]geom.Point, 0, n),
		index:     spatial.MustIndex(arena, cell),
		domainOf:  make([]int, 0, n),
		owned:     make([][]int, doms),
		queues:    make([][]int32, doms),
		reactive:  nw.cfg.Mech.Reactive,
		roundIvl:  (nw.cfg.HelloMin + nw.cfg.HelloMax) / 2,
		window:    grid.Window(nw.model.MaxSpeed()),
		haloR:     nw.cfg.NormalRange + grid.Guard(),
		vmax:      nw.model.MaxSpeed(),
	}
	for d := range pr.doms {
		cur := mobility.NewCursor(nw.model)
		pr.doms[d] = domainCtx{cur: cur, sel: selCtx{cfg: &nw.cfg, pos: cur}, marks: radio.NewIDSet(n)}
	}
	if pr.reactive {
		// Rounds start at time 0, like the serial Every(0, interval).
		pr.nextDue = 0
	} else {
		for i, nd := range nw.nodes {
			first := nw.firstBeacon(nd)
			pr.nextHello[i] = first
			if first < pr.nextDue {
				pr.nextDue = first
			}
		}
	}
	workers := nw.cfg.ParallelWorkers
	pr.pool = sim.NewRegions(doms, workers, pr.processDomain)
	return pr
}

// close releases the worker pool.
func (pr *parRun) close() { pr.pool.Close() }

// runParallel is the region-parallel body of Network.Run: alternate hello
// windows with engine fences until the horizon, then drain the engine.
// While it runs, nw.par routes flood originations through the parallel
// transmit path (originateFlood fires from engine fences).
func (nw *Network) runParallel(duration float64) Result {
	pr := nw.newParRun()
	defer pr.close()
	nw.par = pr
	defer func() { nw.par = nil }()
	for pr.step(duration) {
	}
	nw.eng.Run(duration)
	return nw.result()
}

// step advances the parallel clock by one synchronization window (clipped
// to the next engine fence) and drains the fence when the clock reaches
// it. It returns false once the clock has reached the horizon.
func (pr *parRun) step(duration float64) bool {
	nw := pr.nw
	if pr.t >= duration {
		return false
	}
	// F is the next fence: the earliest pending engine event, or the
	// horizon. Parallel work strictly before F is independent of it;
	// events at exactly F run engine-first (see the file comment on ties).
	F := duration
	if at, ok := nw.eng.NextAt(); ok && at < F {
		F = at
	}
	if F > pr.t {
		end := pr.t + pr.window
		if end > F {
			end = F
		}
		//lint:ignore float-eq exact assignment: end == duration iff the min above picked the horizon
		horizon := end == duration
		if horizon {
			// Engine-first at the horizon too: F == duration means the
			// earliest pending event is at >= duration, so this drains
			// exactly the events at the horizon instant before the
			// inclusive final dispatch — the same tie rule as mid-run
			// fences.
			nw.eng.Run(duration)
		}
		if pr.hasWork(end, horizon) {
			pr.runWindow(pr.t, end, horizon)
		}
		pr.t = end
		if pr.t < F {
			return true
		}
	}
	nw.eng.Run(F)
	return pr.t < duration
}

// parDue reports whether an item at the given instant belongs to a window
// (or segment) ending at end — inclusive of end only on the final window,
// matching the serial engine's inclusive Run horizon.
//
//lint:ignore float-eq exact boundary compare: the inclusive case admits items at exactly the horizon, like the serial engine's Run(duration)
func parDue(at, end float64, incl bool) bool { return at < end || (incl && at == end) }

// hasWork reports whether any parallel work — beacons or rounds to
// dispatch, deferred receptions, settle passes, flood receptions — is due
// in a window ending at end.
func (pr *parRun) hasWork(end float64, incl bool) bool {
	if parDue(pr.nextDue, end, incl) {
		return true
	}
	if len(pr.fheap) > 0 && parDue(pr.fheap[0].At, end, incl) {
		return true
	}
	if pr.setIdx < len(pr.settles) && parDue(pr.settles[pr.setIdx].at, end, incl) {
		return true
	}
	for d := range pr.doms {
		if h := pr.doms[d].del; len(h) > 0 && parDue(h[0].At, end, incl) {
			return true
		}
	}
	return false
}

// runWindow advances the merged parallel timeline across [start, end) —
// inclusive of end on the final window. Beacons are dispatched in segments
// bounded by the next flood reception or settle pass, so the dispatcher
// never writes sender-side state past the instant a serial reader (a flood
// forward, a settle pass) observes it at.
func (pr *parRun) runWindow(start, end float64, incl bool) {
	pr.windowSeq++
	pr.snapshotAt(start)
	pr.records = pr.records[:0]
	pr.gRec = 0
	for d := range pr.doms {
		pr.queues[d] = pr.queues[d][:0]
		pr.doms[d].qi = 0
	}
	for {
		inf := math.Inf(1)
		tf, ts := inf, inf
		if len(pr.fheap) > 0 && parDue(pr.fheap[0].At, end, incl) {
			tf = pr.fheap[0].At
		}
		if pr.setIdx < len(pr.settles) && parDue(pr.settles[pr.setIdx].at, end, incl) {
			ts = pr.settles[pr.setIdx].at
		}
		th := inf
		if parDue(pr.nextDue, end, incl) {
			th = pr.nextDue
		}
		if pr.gRec < len(pr.records) && pr.records[pr.gRec].at < th {
			th = pr.records[pr.gRec].at
		}
		for d := range pr.doms {
			if h := pr.doms[d].del; len(h) > 0 && parDue(h[0].At, end, incl) && h[0].At < th {
				th = h[0].At
			}
		}
		bnd := math.Min(tf, ts)
		switch {
		case math.IsInf(th, 1) && math.IsInf(bnd, 1):
			return
		case th <= bnd:
			// Beacon/reception segment up to the next boundary. The
			// boundary instant itself is included: deferred receptions at
			// exactly a settle or flood instant resolve first (the serial
			// order for settles; measure-zero for floods).
			H, hIncl := end, incl
			if bnd < H {
				H, hIncl = bnd, true
			}
			pr.dispatchTo(H, hIncl)
			// Dispatching a reactive round appends a settle pass that was
			// not in bnd when this segment was chosen. Clip the drain to
			// it: deliveries of this round with delays past the settle
			// offset must stay pending until the settle has selected, as
			// they do on the serial engine.
			if pr.setIdx < len(pr.settles) && pr.settles[pr.setIdx].at < H {
				H, hIncl = pr.settles[pr.setIdx].at, true
			}
			pr.segment(H, hIncl)
		case ts <= tf:
			pr.settlePass()
		default:
			pr.floodStep()
		}
	}
}

// snapshot re-resolves every position at the given instant in one batched
// cursor sweep, re-indexes the positions for the receiver scans, reassigns
// domain ownership (owned lists and bounding boxes), and re-homes pending
// deferred receptions to their receivers' (possibly new) owner domains.
// The re-homing pushes entries in whatever order the old heaps hold them:
// (at, seq) keys are unique, so each heap pops its entries in key order
// however they were inserted, and worker scheduling cannot leak into what
// a domain delivers.
func (pr *parRun) snapshot(at float64) {
	pr.posT = pr.cur.ResolveAllInto(pr.posT[:0], at)
	pr.index.Build(pr.posT)
	pr.domainOf = pr.grid.AssignInto(pr.posT, pr.domainOf[:0])
	for d := range pr.owned {
		pr.owned[d] = pr.owned[d][:0]
		pr.doms[d].box = geom.Rect{Min: geom.Pt(math.Inf(1), math.Inf(1)), Max: geom.Pt(math.Inf(-1), math.Inf(-1))}
	}
	for i, d := range pr.domainOf {
		pr.owned[d] = append(pr.owned[d], i)
		pr.doms[d].box = pr.doms[d].box.Extend(pr.posT[i])
	}
	pr.rehome = pr.rehome[:0]
	for d := range pr.doms {
		pd := &pr.doms[d]
		pr.rehome = append(pr.rehome, pd.del...)
		pd.del = pd.del[:0]
	}
	for _, e := range pr.rehome {
		pr.doms[pr.domainOf[e.V.rid]].del.Push(e.At, e.Seq, e.V)
	}
	pr.snapAt = at
	pr.snapped = true
}

// snapshotAt takes the snapshot at instant at unless the current one was
// taken at exactly that instant — by a metric sample at the fence this
// window starts from, or a fence-time flood transmit. A snapshot depends
// only on its instant, and every deferred reception queued since sits in
// its receiver's owner domain under that same assignment, so a second
// snapshot at the instant would rebuild the same state and move no entry.
func (pr *parRun) snapshotAt(at float64) {
	if pr.snapped && pr.snapAt == at { //lint:ignore float-eq same simulated instant, exact by construction
		return
	}
	pr.snapshot(at)
}

// ensureSnapshot refreshes the ownership snapshot when the current one has
// aged past one window — the bound under which snapshot assignments plus
// the guard halo still cover every receiver. Mid-window work is always
// within one window of the window-start snapshot; this only fires for
// fence-time flood transmits after skipped (workless) windows.
func (pr *parRun) ensureSnapshot(at float64) {
	if pr.snapped && at <= pr.snapAt+pr.window {
		return
	}
	pr.snapshot(at)
}

// dispatchTo generates the records of every beacon (or reactive round) due
// up to H, merges the new batch into (time, sender) order, and queues each
// record to every domain its halo disc can reach.
func (pr *parRun) dispatchTo(H float64, incl bool) {
	if !parDue(pr.nextDue, H, incl) {
		return
	}
	nw := pr.nw
	batch := len(pr.records)
	if pr.reactive {
		// At most ONE round per dispatch: each round appends a settle pass
		// 0.05 s later, and that settle must observe exactly this round's
		// advertisements — dispatching a second round here would overwrite
		// advertisedPos/version before the pending settle reads them. The
		// window loop re-enters for later rounds after the settle fires.
		if parDue(pr.nextRound, H, incl) {
			at := pr.nextRound
			pr.round++
			for _, nd := range nw.nodes {
				pos := pr.cur.PositionAt(nd.id, at)
				msg := nw.advertiseAs(nd, at, pos, pr.round)
				pr.records = append(pr.records, helloRecord{at: at, sender: nd.id, truePos: pos, msg: msg})
			}
			pr.settles = append(pr.settles, settleItem{at: at + reactiveSettle, ver: pr.round})
			pr.nextRound += pr.roundIvl
		}
		pr.nextDue = pr.nextRound
	} else {
		pr.nextDue = math.Inf(1)
		for i, nd := range nw.nodes {
			at := pr.nextHello[i]
			for parDue(at, H, incl) {
				pos := pr.cur.PositionAt(nd.id, at)
				msg := nw.advertise(nd, at, pos)
				pr.records = append(pr.records, helloRecord{at: at, sender: nd.id, truePos: pos, msg: msg})
				at += nd.interval
			}
			pr.nextHello[i] = at
			if at < pr.nextDue {
				pr.nextDue = at
			}
		}
	}
	// Deterministic merge of the new batch: records execute in
	// (time, sender) order — the serial event order, since each sender
	// beacons at most once per instant. Batches are time-disjoint (each
	// starts past the previous horizon), so the whole array stays sorted.
	pr.sortBase = batch
	sort.Sort(pr)
	side := pr.grid.Side()
	for ri := batch; ri < len(pr.records); ri++ {
		rec := &pr.records[ri]
		// Every domain the halo disc intersects sees the record; owners of
		// true receivers are always inside (halo-containment property,
		// pinned by radio's TestDomainHaloCoversMovingReceivers).
		ix0, iy0, ix1, iy1 := pr.grid.HaloBounds(rec.truePos, pr.haloR)
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				d := iy*side + ix
				pr.queues[d] = append(pr.queues[d], int32(ri))
			}
		}
	}
}

// sort.Interface over records[sortBase:]: (time, sender) ascending.
func (pr *parRun) Len() int { return len(pr.records) - pr.sortBase }
func (pr *parRun) Swap(i, j int) {
	i, j = i+pr.sortBase, j+pr.sortBase
	pr.records[i], pr.records[j] = pr.records[j], pr.records[i]
}
func (pr *parRun) Less(i, j int) bool {
	a, b := &pr.records[i+pr.sortBase], &pr.records[j+pr.sortBase]
	if a.at != b.at { //lint:ignore float-eq exact compare orders records; equal instants fall through to sender id
		return a.at < b.at
	}
	return a.sender < b.sender
}

// segment runs one barrier pass draining every domain timeline (queued
// records + deferred receptions) up to H, then advances the dispatcher's
// processed-record cursor past the same horizon.
func (pr *parRun) segment(H float64, incl bool) {
	pr.segH, pr.segIncl = H, incl
	pr.mode = modeSegment
	pr.pool.Barrier()
	for pr.gRec < len(pr.records) && parDue(pr.records[pr.gRec].at, H, incl) {
		pr.gRec++
	}
}

// settlePass runs the next reactive settle as one barrier pass: every
// domain re-selects its owned nodes from the round's version. Ownership
// staleness is irrelevant here — any partition visits each node exactly
// once — so no snapshot refresh is needed.
func (pr *parRun) settlePass() {
	s := pr.settles[pr.setIdx]
	pr.setIdx++
	pr.setAt, pr.setVer = s.at, s.ver
	pr.mode = modeSettle
	pr.pool.Barrier()
	pr.mode = modeSegment
}

// floodStep resolves the earliest pending flood reception — the serial
// delivery.Act sequence: acceptance, then the forward transmit. Runs on the
// dispatcher; the transmit's receiver scan is the only parallel part.
func (pr *parRun) floodStep() {
	e := pr.fheap.Pop()
	if pr.nw.accept(e.V) {
		pr.floodTransmit(e.V.fl, e.V.rid, e.At)
	}
}

// floodTransmit is one node's broadcast of the flood packet on the
// parallel engine — the serial transmit with the receiver loop replaced by
// a scan barrier. Sender-side work (preamble, counters) runs serially on
// the dispatcher through the network's own selection context, exactly as
// the serial engine's transmit would at this instant.
func (pr *parRun) floodTransmit(fl *flood, sender int, now float64) {
	nw := pr.nw
	nd := nw.nodes[sender]
	nw.sendPreamble(nd, now, fl.pin)
	nw.dataTx++
	r := nd.txRange
	if r <= 0 {
		return // matches the radio's empty receiver set for r <= 0
	}
	pr.ensureSnapshot(now)
	pr.scanFl, pr.scanSender, pr.scanAt = fl, sender, now
	pr.scanPos = nw.med.PositionAt(sender, now)
	pr.scanR = r
	pr.mode = modeFloodScan
	pr.pool.Barrier()
	pr.mode = modeSegment
	// Merge the outboxes in ascending receiver order — the serial
	// per-transmit schedule order — and push onto the global heap with
	// transmit-monotone sequence numbers.
	pr.fmerge = pr.fmerge[:0]
	for d := range pr.doms {
		pr.fmerge = append(pr.fmerge, pr.doms[d].fout...)
		pr.doms[d].fout = pr.doms[d].fout[:0]
	}
	sortFloodOutByRid(pr.fmerge)
	for _, o := range pr.fmerge {
		pr.fseq++
		pr.fheap.Push(o.at, pr.fseq, floodRecv{fl: fl, rid: o.rid})
	}
}

// sampleDegrees returns the sum of every node's physical degree at instant
// at, the metric sample's count, as one barrier pass: each domain counts
// its owned nodes' discs on the snapshot index with radio.Medium.Degree,
// the serial DegreesAt's definition, and the dispatcher adds the domain
// sums. The snapshot is taken at exactly at, so the window that starts at
// this fence reuses it.
func (pr *parRun) sampleDegrees(at float64) int {
	pr.snapshotAt(at)
	pr.sampleAt = at
	pr.mode = modeSample
	pr.pool.Barrier()
	pr.mode = modeSegment
	sum := 0
	for d := range pr.doms {
		sum += pr.doms[d].deg
	}
	return sum
}

// processDomain runs one domain's share of the current barrier pass.
//
//manet:noalloc
func (pr *parRun) processDomain(d int) {
	pd := &pr.doms[d]
	switch pr.mode {
	case modeSettle:
		pr.processSettle(pd, d)
	case modeFloodScan:
		pr.processFloodScan(pd, d)
	case modeSample:
		pr.processSample(pd, d)
	default:
		pr.processSegment(pd, d)
	}
}

// processSegment drains one domain's timeline — queued beacon records and
// deferred receptions, merged in time order — up to the segment horizon.
// Equal instants resolve records first (the serial scheduling order for
// same-instant creations; any other collision is measure-zero).
//
//manet:noalloc
func (pr *parRun) processSegment(pd *domainCtx, d int) {
	q := pr.queues[d]
	for {
		recOK := pd.qi < len(q)
		delOK := len(pd.del) > 0
		useDel := delOK && (!recOK || pd.del[0].At < pr.records[q[pd.qi]].at)
		switch {
		case useDel:
			if !parDue(pd.del[0].At, pr.segH, pr.segIncl) {
				return
			}
			e := pd.del.Pop()
			pr.nw.observe(e.V.rid, e.V.msg)
		case recOK:
			ri := int(q[pd.qi])
			if !parDue(pr.records[ri].at, pr.segH, pr.segIncl) {
				return
			}
			pd.qi++
			pr.processRecord(pd, d, ri)
		default:
			return
		}
	}
}

// processRecord delivers one beacon inside one domain: the domain's
// receivers from the snapshot-grid scan, then synchronous delivery,
// or deferral onto the domain heap (channel delay) — and the sender's
// re-selection in its owner domain.
//
//manet:noalloc
func (pr *parRun) processRecord(pd *domainCtx, d int, ri int) {
	nw := pr.nw
	rec := &pr.records[ri]
	recv := pr.receivers(pd, d, rec.sender, rec.truePos, rec.at, nw.cfg.NormalRange)
	if nw.ch.DelayEnabled() {
		sent := math.Float64bits(rec.msg.SentAt)
		base := pr.windowSeq<<40 | uint64(ri)<<20
		for _, rid := range recv {
			pd.del.Push(rec.at+nw.ch.HelloDelay(rec.sender, rid, sent), base|uint64(rid),
				helloRecv{rid: rid, msg: rec.msg})
		}
	} else {
		for _, rid := range recv {
			nw.observe(rid, rec.msg)
		}
	}
	if !pr.reactive && pr.domainOf[rec.sender] == d {
		pd.sel.selectView(nw.nodes[rec.sender], rec.at, selModeLatest, 0, rec.msg.Pos)
	}
}

// processSettle re-selects this domain's owned nodes from the settling
// round's version — the serial settle event partitioned by owner.
//
//manet:noalloc
func (pr *parRun) processSettle(pd *domainCtx, d int) {
	for _, v := range pr.owned[d] {
		nd := pr.nw.nodes[v]
		pd.sel.selectView(nd, pr.setAt, selModeVersioned, pr.setVer, nd.advertisedPos)
	}
}

// processSample counts the physical degrees of this domain's owned nodes
// at the sample instant on the snapshot index (positions exact at
// sampleAt) and leaves their sum in pd.deg.
//
//manet:noalloc
func (pr *parRun) processSample(pd *domainCtx, d int) {
	sum := 0
	for _, v := range pr.owned[d] {
		sum += radio.Degree(pr.index, pr.posT[v], pr.nw.nodes[v].txRange)
	}
	pd.deg = sum
}

// processFloodScan emits this domain's accepting receivers for the current
// flood transmit: the same snapshot-grid receiver scan as a beacon, then
// the forwarding-rule checks of the serial transmit's receiver loop, with
// each survivor's keyed delivery delay.
//
//manet:noalloc
func (pr *parRun) processFloodScan(pd *domainCtx, d int) {
	pd.fout = pd.fout[:0]
	nw := pr.nw
	fl, sender, at := pr.scanFl, pr.scanSender, pr.scanAt
	snd := nw.nodes[sender]
	for _, rid := range pr.receivers(pd, d, sender, pr.scanPos, at, pr.scanR) {
		if fl.accepted[rid] || !nw.carries(snd, rid) {
			continue
		}
		pd.fout = append(pd.fout, floodOut{at: at + nw.floodDelay(fl, sender, rid), rid: rid})
	}
}

// receivers returns the receivers owned by domain d of a transmission by
// sender from its exact position pos at instant at with range r, in
// ascending id order, after the channel loss chains — the serial
// Transmit's receiver set restricted to the domain.
//
// Candidates come from the snapshot grid. A node indexed at its snapAt
// position is at most vmax·|at−snapAt| away from where it is at at, and pos
// is exact, so every node within r of pos at at is indexed within
// r + vmax·|at−snapAt| of it: the bounded-displacement argument of the
// radio's staleness grid and the paper's buffer zone (Theorem 5), one-sided
// because only the receiver's position is stale. The query is clipped to
// the bounding box of the domain's owned snapshot positions, so a disc
// spanning several domains is scanned about once in total. The same bound
// makes a candidate indexed inside radio.InnerRadius2 a receiver outright;
// the rest pass the serial radio's exact filter over positions at at, so
// the set is exact. The radio's mark set restores ascending id order.
// Chains are per-receiver, advanced here in ascending-id order as the
// serial FilterLost does, so restricting them to one domain changes
// nothing.
//
//manet:noalloc
func (pr *parRun) receivers(pd *domainCtx, d, sender int, pos geom.Point, at, r float64) []int {
	nw := pr.nw
	disp := pr.vmax * math.Abs(at-pr.snapAt)
	pd.cand = pr.index.WithinClipped(pos, r+disp, pd.box, pd.cand[:0])
	r2 := r * r
	in2 := radio.InnerRadius2(r, disp)
	for _, v := range pd.cand {
		if v == sender || pr.domainOf[v] != d {
			continue
		}
		if pr.posT[v].Dist2(pos) <= in2 || pd.cur.PositionAt(v, at).Dist2(pos) <= r2 {
			pd.marks.Add(v)
		}
	}
	pd.recv = pd.marks.AppendSorted(pd.recv[:0])
	return nw.ch.FilterLost(pd.recv)
}

// sortFloodOutByRid is an allocation-free insertion sort for the small
// per-transmit outbox merge (receiver ids are unique across domains).
func sortFloodOutByRid(a []floodOut) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].rid < a[j-1].rid; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
