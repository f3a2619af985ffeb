package manet

import (
	"mstc/internal/hello"
	"mstc/internal/sim"
	"mstc/internal/traffic"
)

// Traffic driver: CBR flows routed by the AODV-style or OLSR-style state
// machines of package traffic, carried over the controlled logical topology
// exactly like floods are — transmissions use the sender's current
// (buffered) range, and a receiver outside the sender's logical set drops
// the packet unless the physical-neighbor mechanism is on.
//
// Randomness discipline: flow endpoints and start offsets come from the
// dedicated 't' substream (one Sub('t', flow) per flow at setup), and every
// in-flight delay draw comes from the 'q' substream through trafficJitter —
// a pure derivation keyed by a per-delivery unique id, so the draw order
// cannot depend on event interleaving. Receptions run through pooled
// actors, as flood's do; the steady-state relay path is //manet:noalloc and
// pinned by TestTrafficSteadyStateAllocs.

// trafficDrain is how long before the run horizon flows stop emitting, so
// the last packets can still be scored.
const trafficDrain = 0.5

// dataHopLimit is the IP-TTL analogue routed protocols rely on: while
// link-state views disagree during convergence, OLSR forwarding can loop
// transiently, and the loop must kill the packet rather than let it orbit
// (and inflate the hop/overhead metrics) for the rest of the run.
const dataHopLimit = 64

// Packet kinds. Data rides its own pooled actor (the noalloc hot path);
// control packets share a second pool whose handlers may allocate
// (discovery state, link-state ingestion).
const (
	pktData = uint8(iota + 1)
	pktRREQ
	pktRREP
	pktRERR
	pktTC
)

// trafficJitter label kinds: the first 'q' label position discriminates
// the draw's purpose, the remaining two identify the event.
const (
	jitterHop = uint64(iota + 1) // per-delivery forwarding jitter
	jitterTC                     // per-node TC phase offset
)

// trafficPacket is one in-flight traffic packet. Field meaning varies by
// kind: origin is the data source / RREQ originator / TC originator / the
// node a RERR travels back to; dst is the route target (or the broken
// destination a RERR reports); hops is the hop count at the receiver.
type trafficPacket struct {
	kind   uint8
	from   int // transmitting hop
	origin int
	dst    int
	hops   int
	ttl    int     // RREQ: remaining ring radius
	id     uint32  // RREQ id / TC ANSN
	seq    uint32  // RREQ: origin seq; RREP: dst seq; RERR: invalidated dst seq
	dseq   uint32  // RREQ: last-known destination seq
	flow   int     // data: flow index
	sentAt float64 // data: origination instant
	sel    []int   // TC: advertised selector set (shared, read-only)
}

// trafficFlow is one CBR flow's source-side state.
type trafficFlow struct {
	idx      int
	src, dst int
	sent     int // data packets originated (the PDR denominator)

	// AODV discovery state.
	discovering bool
	ttl         int
	retries     int
	attempt     uint64    // cancels stale ring timeouts
	pending     []float64 // origination times buffered awaiting a route
}

// trafficState is the per-run traffic subsystem state, owned by Network.
type trafficState struct {
	nw  *Network
	cfg traffic.Config

	flows []trafficFlow

	// AODV per-node state.
	routes  []*traffic.RouteTable
	nodeSeq []uint32          // own destination sequence numbers
	rreqSeq []uint32          // own RREQ id counters
	seen    []map[uint64]bool // handled RREQ (origin, id) pairs

	// OLSR per-node state.
	ls   []*traffic.LinkState
	lsV  []uint64 // hello-table version the last Recompute saw
	ansn []uint32 // own TC sequence numbers

	uid uint64 // per-delivery unique counter, keys 'q' jitter draws

	// Scratch (never escapes an event).
	msgBuf    []hello.Message
	histBuf   []hello.Message
	nbrBuf    []int
	nbrMask   []bool
	twoHop    [][]int
	brokenBuf []int

	// Accumulators.
	sent, delivered              int
	delaySum, hopSum             float64
	dataTx                       int
	rreqTx, rrepTx, rerrTx, tcTx int

	data pool[trafficDelivery]
	ctrl pool[trafficCtrl]
}

// TrafficResult aggregates the traffic subsystem of one run.
type TrafficResult struct {
	// Mode is the routing protocol's display name ("aodv"/"olsr").
	Mode string
	// Sent is the number of data packets the CBR flows originated.
	Sent int
	// Delivered is how many of them reached their destination.
	Delivered int
	// DeliveryRatio is Delivered/Sent (the per-flow PDR, pooled).
	DeliveryRatio float64
	// AvgDelay is the mean end-to-end latency of delivered packets (s).
	AvgDelay float64
	// AvgHops is the mean hop count of delivered packets.
	AvgHops float64
	// DataTx counts data-packet transmissions (one per hop).
	DataTx int
	// RREQTx/RREPTx/RERRTx/TCTx count control transmissions by kind.
	RREQTx int
	RREPTx int
	RERRTx int
	TCTx   int
	// ControlPerData is total control transmissions per delivered data
	// packet — the overhead measure the routing comparison plots.
	ControlPerData float64
}

// startTraffic wires the traffic subsystem into the event loop: per-flow
// CBR emission (endpoints and phase from the 't' substream) and, for OLSR,
// per-node TC emission.
func (nw *Network) startTraffic(duration float64) {
	cfg := nw.cfg.Traffic
	n := len(nw.nodes)
	ts := &trafficState{
		nw:        nw,
		cfg:       cfg,
		nbrBuf:    make([]int, 0, n),
		nbrMask:   make([]bool, n),
		brokenBuf: make([]int, 0, n),
	}
	nw.traf = ts
	switch cfg.Mode {
	case traffic.AODV:
		ts.routes = traffic.NewRouteTables(n, n)
		ts.nodeSeq = make([]uint32, n)
		ts.rreqSeq = make([]uint32, n)
		ts.seen = make([]map[uint64]bool, n)
		for i := range ts.seen {
			ts.seen[i] = make(map[uint64]bool, 8)
		}
	case traffic.OLSR:
		ts.ls = make([]*traffic.LinkState, n)
		for i := range ts.ls {
			ts.ls[i] = traffic.NewLinkState(n)
		}
		ts.lsV = make([]uint64, n)
		ts.ansn = make([]uint32, n)
	}
	warmup := 2 * nw.cfg.HelloMax
	ts.flows = make([]trafficFlow, cfg.Flows)
	for i := range ts.flows {
		f := &ts.flows[i]
		f.idx = i
		// The flow's endpoints and phase are its own substream: adding or
		// removing a flow never shifts another flow's draws.
		tr := nw.rng.Sub('t', uint64(i))
		f.src = tr.Intn(n)
		f.dst = tr.Intn(n - 1)
		if f.dst >= f.src {
			f.dst++ // uniform over the n-1 non-source nodes
		}
		start := warmup + tr.Uniform(0, 1/cfg.Rate)
		nw.eng.Every(start, 1/cfg.Rate, func(now sim.Time) {
			ts.emit(f, now, duration)
		})
	}
	if cfg.Mode == traffic.OLSR {
		for _, nd := range nw.nodes {
			nd := nd
			off := nw.trafficJitter(jitterTC, uint64(nd.id), 0, cfg.TCInterval)
			nw.eng.Every(warmup+off, cfg.TCInterval, func(now sim.Time) {
				ts.originateTC(nd, now)
			})
		}
	}
}

// trafficJitter is the single derivation site of the 'q' traffic substream:
// a uniform draw in [0, max) keyed by (kind, a, b). Keeping one call site
// (with the purpose discriminated by the kind label value) makes the
// substream rules hold trivially, and the pure derivation makes every draw
// independent of event interleaving.
func (nw *Network) trafficJitter(kind, a, b uint64, max float64) float64 {
	//lint:ignore noalloc Derive is by-value and never retains its label slice, so both stay on the stack; TestTrafficSteadyStateAllocs pins the steady state at zero
	src := nw.rng.Derive('q', kind, a, b)
	return src.Uniform(0, max)
}

// result assembles the run's traffic metrics.
func (ts *trafficState) result() TrafficResult {
	r := TrafficResult{
		Mode:      ts.cfg.Mode.String(),
		Sent:      ts.sent,
		Delivered: ts.delivered,
		DataTx:    ts.dataTx,
		RREQTx:    ts.rreqTx,
		RREPTx:    ts.rrepTx,
		RERRTx:    ts.rerrTx,
		TCTx:      ts.tcTx,
	}
	if ts.sent > 0 {
		r.DeliveryRatio = float64(ts.delivered) / float64(ts.sent)
	}
	if ts.delivered > 0 {
		r.AvgDelay = ts.delaySum / float64(ts.delivered)
		r.AvgHops = ts.hopSum / float64(ts.delivered)
		ctrl := ts.rreqTx + ts.rrepTx + ts.rerrTx + ts.tcTx
		r.ControlPerData = float64(ctrl) / float64(ts.delivered)
	}
	return r
}

// emit originates one CBR data packet (or buffers it while AODV discovery
// runs). Every emission counts toward Sent, whether or not a route exists —
// PDR is an application-level measure.
func (ts *trafficState) emit(f *trafficFlow, now sim.Time, duration float64) {
	if ts.cfg.Packets > 0 && f.sent >= ts.cfg.Packets {
		return
	}
	if now+trafficDrain > duration {
		return
	}
	f.sent++
	ts.sent++
	nw := ts.nw
	switch ts.cfg.Mode {
	case traffic.AODV:
		rt := ts.routes[f.src]
		r, ok := rt.Lookup(f.dst, now)
		if !ok {
			f.pending = append(f.pending, now)
			if !f.discovering {
				ts.startDiscovery(f, now)
			}
			return
		}
		rt.Refresh(f.dst, now+ts.cfg.RouteLifetime)
		p := trafficPacket{kind: pktData, from: f.src, origin: f.src, dst: f.dst,
			hops: 1, flow: f.idx, sentAt: now}
		if !nw.sendTo(p, f.src, r.NextHop, now) {
			nw.linkBreak(f.src, r.NextHop, f.src, f.dst, now)
			f.pending = append(f.pending, now) // retry after rediscovery
		}
	case traffic.OLSR:
		nh, ok := ts.olsrNextHop(nw.nodes[f.src], f.dst, now)
		if !ok {
			return // no link-state route yet: lost
		}
		p := trafficPacket{kind: pktData, from: f.src, origin: f.src, dst: f.dst,
			hops: 1, flow: f.idx, sentAt: now}
		nw.sendTo(p, f.src, nh, now)
	}
}

// sendTo unicasts p from u to target: the sender preamble of a flood
// transmit, then the hop succeeds only if target is among the radio's
// receivers and passes the topology-layer filter. A false return is the
// link-layer feedback AODV's RERR path keys on.
func (nw *Network) sendTo(p trafficPacket, u, target int, now sim.Time) bool {
	nd := nw.nodes[u]
	nw.sendPreamble(nd, now, 0)
	nw.traf.countTx(p.kind)
	receivers := nw.med.Transmit(now, u, nd.txRange, nw.recvBuf[:0])
	nw.recvBuf = receivers
	found := false
	for _, rid := range receivers {
		if rid == target {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	if !nw.carries(nd, target) {
		return false // dropped at the topology layer
	}
	nw.scheduleTraffic(p, target, now)
	return true
}

// broadcastCtrl broadcasts a control packet (RREQ/TC) from u to every
// receiver passing the topology-layer filter.
func (nw *Network) broadcastCtrl(p trafficPacket, u int, now sim.Time) {
	nd := nw.nodes[u]
	nw.sendPreamble(nd, now, 0)
	nw.traf.countTx(p.kind)
	receivers := nw.med.Transmit(now, u, nd.txRange, nw.recvBuf[:0])
	nw.recvBuf = receivers
	for _, rid := range receivers {
		if nw.carries(nd, rid) {
			nw.scheduleTraffic(p, rid, now)
		}
	}
}

// scheduleTraffic defers one reception by a keyed forwarding jitter, onto
// the kind-appropriate pooled actor.
func (nw *Network) scheduleTraffic(p trafficPacket, rid int, now sim.Time) {
	ts := nw.traf
	ts.uid++
	delay := nw.trafficJitter(jitterHop, ts.uid, uint64(rid), nw.cfg.ForwardJitterMax)
	if p.kind == pktData {
		d := ts.data.get()
		*d = trafficDelivery{nw: nw, pkt: p, rid: rid}
		nw.eng.ScheduleActorIn(delay, d)
		return
	}
	c := ts.ctrl.get()
	*c = trafficCtrl{nw: nw, pkt: p, rid: rid}
	nw.eng.ScheduleActorIn(delay, c)
}

// countTx attributes one transmission to its packet kind.
func (ts *trafficState) countTx(kind uint8) {
	switch kind {
	case pktData:
		ts.dataTx++
	case pktRREQ:
		ts.rreqTx++
	case pktRREP:
		ts.rrepTx++
	case pktRERR:
		ts.rerrTx++
	case pktTC:
		ts.tcTx++
	}
}

// trafficDelivery is one pending data-packet reception — the steady-state
// hot path, pooled like flood's delivery and allocation-free once warm.
type trafficDelivery struct {
	nw  *Network
	pkt trafficPacket
	rid int
}

// Act resolves a data reception: deliver at the destination, otherwise
// relay along the route table.
//
//manet:noalloc
func (d *trafficDelivery) Act(now sim.Time) {
	nw, p, rid := d.nw, d.pkt, d.rid
	ts := nw.traf
	ts.data.put(d)
	if rid == p.dst {
		ts.delivered++
		ts.delaySum += now - p.sentAt
		ts.hopSum += float64(p.hops)
		if ts.cfg.Mode == traffic.AODV {
			// Arriving data keeps the reverse route to the source warm.
			ts.routes[rid].Refresh(p.origin, now+ts.cfg.RouteLifetime)
		}
		return
	}
	nw.forwardData(p, rid, now)
}

// forwardData relays a data packet at intermediate node u: route-table (or
// link-state) lookup, then one unicast hop. An AODV relay whose next hop
// fails tears the route down and originates a RERR toward the source.
//
//manet:noalloc
func (nw *Network) forwardData(p trafficPacket, u int, now sim.Time) {
	ts := nw.traf
	if p.hops >= dataHopLimit {
		return // TTL expired: a transient routing loop ate the packet
	}
	switch ts.cfg.Mode {
	case traffic.AODV:
		rt := ts.routes[u]
		r, ok := rt.Lookup(p.dst, now)
		if !ok {
			// No live route at a relay: drop and tell the source.
			nw.sendRERR(u, p.origin, p.dst, now)
			return
		}
		rt.Refresh(p.dst, now+ts.cfg.RouteLifetime)
		rt.Refresh(p.origin, now+ts.cfg.RouteLifetime)
		p.from = u
		p.hops++
		if !nw.sendTo(p, u, r.NextHop, now) {
			nw.linkBreak(u, r.NextHop, p.origin, p.dst, now)
		}
	case traffic.OLSR:
		nh, ok := ts.olsrNextHop(nw.nodes[u], p.dst, now)
		if !ok {
			return // link state has no path: lost until the next TC wave
		}
		p.from = u
		p.hops++
		nw.sendTo(p, u, nh, now)
	}
}

// linkBreak handles next-hop loss at node u: every route through the failed
// neighbor is invalidated (sequence numbers bumped) and a RERR for the
// packet's destination travels back toward its source.
func (nw *Network) linkBreak(u, nh, origin, dst int, now sim.Time) {
	ts := nw.traf
	ts.brokenBuf = ts.routes[u].InvalidateVia(nh, ts.brokenBuf[:0])
	nw.sendRERR(u, origin, dst, now)
}

// sendRERR originates a route-error for dst toward origin. When the break
// happened at the source itself the teardown is delivered locally through
// the control pool, so rediscovery always runs on the control path.
func (nw *Network) sendRERR(u, origin, dst int, now sim.Time) {
	ts := nw.traf
	p := trafficPacket{kind: pktRERR, from: u, origin: origin, dst: dst,
		hops: 1, seq: ts.routes[u].LastSeq(dst)}
	if u == origin {
		ts.rerrTx++ // local teardown: accounted, not transmitted
		c := ts.ctrl.get()
		*c = trafficCtrl{nw: nw, pkt: p, rid: u}
		nw.eng.ScheduleActorIn(0, c)
		return
	}
	rr, ok := ts.routes[u].Lookup(origin, now)
	if !ok {
		return // no reverse route: the teardown dies here
	}
	nw.sendTo(p, u, rr.NextHop, now)
}

// trafficCtrl is one pending control-packet reception (RREQ/RREP/RERR/TC).
// Pooled like trafficDelivery; its handlers may allocate (discovery caches,
// link-state ingestion), so it stays off the noalloc closure.
type trafficCtrl struct {
	nw  *Network
	pkt trafficPacket
	rid int
}

// Act dispatches a control reception to its protocol handler.
func (c *trafficCtrl) Act(now sim.Time) {
	nw, p, rid := c.nw, c.pkt, c.rid
	nw.traf.ctrl.put(c)
	switch p.kind {
	case pktRREQ:
		nw.handleRREQ(p, rid, now)
	case pktRREP:
		nw.handleRREP(p, rid, now)
	case pktRERR:
		nw.handleRERR(p, rid, now)
	case pktTC:
		nw.handleTC(p, rid, now)
	}
}

// startDiscovery begins an expanding-ring route discovery for flow f.
func (ts *trafficState) startDiscovery(f *trafficFlow, now sim.Time) {
	f.discovering = true
	f.ttl = ts.cfg.TTLStart
	f.retries = 0
	ts.issueRREQ(f, now)
}

// issueRREQ floods one discovery attempt at the current ring radius and
// arms its timeout: an unanswered attempt escalates the radius (doubling,
// capped at TTLMax), then burns MaxRetries network-wide attempts before the
// discovery aborts and drops the buffered packets.
func (ts *trafficState) issueRREQ(f *trafficFlow, now sim.Time) {
	nw := ts.nw
	u := f.src
	ts.nodeSeq[u]++ // AODV: the originator increments its own seq per RREQ
	ts.rreqSeq[u]++
	id := ts.rreqSeq[u]
	ts.seen[u][rreqKey(u, id)] = true
	p := trafficPacket{kind: pktRREQ, from: u, origin: u, dst: f.dst, hops: 1,
		ttl: f.ttl, id: id, seq: ts.nodeSeq[u], dseq: ts.routes[u].LastSeq(f.dst)}
	nw.broadcastCtrl(p, u, now)
	f.attempt++
	attempt := f.attempt
	timeout := float64(f.ttl) * ts.cfg.RingTimeout
	nw.eng.ScheduleIn(timeout, func(at sim.Time) {
		if !f.discovering || f.attempt != attempt {
			return // answered or superseded
		}
		if f.ttl < ts.cfg.TTLMax {
			f.ttl *= 2
			if f.ttl > ts.cfg.TTLMax {
				f.ttl = ts.cfg.TTLMax
			}
		} else {
			f.retries++
			if f.retries > ts.cfg.MaxRetries {
				ts.abortDiscovery(f)
				return
			}
		}
		ts.issueRREQ(f, at)
	})
}

// abortDiscovery gives up on a discovery, losing the buffered packets
// (they were already counted as sent).
func (ts *trafficState) abortDiscovery(f *trafficFlow) {
	f.discovering = false
	f.attempt++
	f.pending = f.pending[:0]
}

// rreqKey packs a RREQ's (origin, id) identity for the seen cache.
func rreqKey(origin int, id uint32) uint64 {
	return uint64(origin)<<32 | uint64(id)
}

// handleRREQ processes a route request at node u: install the reverse
// route, answer from the destination (or a relay with a fresh-enough
// route), otherwise shrink the ring and re-flood.
func (nw *Network) handleRREQ(p trafficPacket, u int, now sim.Time) {
	ts := nw.traf
	key := rreqKey(p.origin, p.id)
	if ts.seen[u][key] {
		return
	}
	ts.seen[u][key] = true
	rt := ts.routes[u]
	rt.Update(p.origin, traffic.Route{NextHop: p.from, Hops: p.hops, Seq: p.seq,
		Expiry: now + ts.cfg.RouteLifetime})
	if u == p.dst {
		if p.dseq >= ts.nodeSeq[u] {
			ts.nodeSeq[u] = p.dseq + 1 // reply at least as fresh as requested
		}
		rep := trafficPacket{kind: pktRREP, from: u, origin: p.origin, dst: u,
			hops: 1, seq: ts.nodeSeq[u]}
		if rr, ok := rt.Lookup(p.origin, now); ok {
			nw.sendTo(rep, u, rr.NextHop, now)
		}
		return
	}
	if r, ok := rt.Lookup(p.dst, now); ok && r.Seq >= p.dseq {
		// Intermediate reply: a relay with a route at least as fresh as
		// the request demands answers on the destination's behalf.
		rep := trafficPacket{kind: pktRREP, from: u, origin: p.origin, dst: p.dst,
			hops: r.Hops + 1, seq: r.Seq}
		if rr, ok2 := rt.Lookup(p.origin, now); ok2 {
			nw.sendTo(rep, u, rr.NextHop, now)
		}
		return
	}
	if p.ttl > 1 {
		p.ttl--
		p.hops++
		p.from = u
		nw.broadcastCtrl(p, u, now)
	}
}

// handleRREP processes a route reply at node u: install the forward route
// and either complete the discovery (at the originator) or pass the reply
// one hop further along the reverse route.
func (nw *Network) handleRREP(p trafficPacket, u int, now sim.Time) {
	ts := nw.traf
	rt := ts.routes[u]
	rt.Update(p.dst, traffic.Route{NextHop: p.from, Hops: p.hops, Seq: p.seq,
		Expiry: now + ts.cfg.RouteLifetime})
	if u == p.origin {
		for i := range ts.flows {
			f := &ts.flows[i]
			if f.src != u || f.dst != p.dst || !f.discovering {
				continue
			}
			f.discovering = false
			f.attempt++ // cancel the armed ring timeout
			ts.flushPending(f, now)
		}
		return
	}
	rr, ok := rt.Lookup(p.origin, now)
	if !ok {
		return // reverse route expired under the reply
	}
	p.from = u
	p.hops++
	nw.sendTo(p, u, rr.NextHop, now)
}

// flushPending drains a flow's buffered packets down the fresh route.
func (ts *trafficState) flushPending(f *trafficFlow, now sim.Time) {
	nw := ts.nw
	rt := ts.routes[f.src]
	for len(f.pending) > 0 {
		r, ok := rt.Lookup(f.dst, now)
		if !ok {
			if !f.discovering {
				ts.startDiscovery(f, now)
			}
			return
		}
		sentAt := f.pending[0]
		f.pending = f.pending[:copy(f.pending, f.pending[1:])]
		rt.Refresh(f.dst, now+ts.cfg.RouteLifetime)
		p := trafficPacket{kind: pktData, from: f.src, origin: f.src, dst: f.dst,
			hops: 1, flow: f.idx, sentAt: sentAt}
		if !nw.sendTo(p, f.src, r.NextHop, now) {
			// The fresh route is already dead; this packet is lost and the
			// self-RERR below restarts discovery for the rest.
			nw.linkBreak(f.src, r.NextHop, f.src, f.dst, now)
			return
		}
	}
}

// handleRERR processes a route error at node u: invalidate the reported
// route if it runs through the RERR's sender, then either restart
// discovery (at the source) or relay the teardown toward it.
func (nw *Network) handleRERR(p trafficPacket, u int, now sim.Time) {
	ts := nw.traf
	rt := ts.routes[u]
	if p.from != u {
		rt.Invalidate(p.dst, p.from)
	}
	if u == p.origin {
		for i := range ts.flows {
			f := &ts.flows[i]
			if f.src != u || f.dst != p.dst || f.discovering {
				continue
			}
			if len(f.pending) == 0 && ts.cfg.Packets > 0 && f.sent >= ts.cfg.Packets {
				continue // flow finished: nothing left to route
			}
			ts.startDiscovery(f, now)
		}
		return
	}
	rr, ok := rt.Lookup(p.origin, now)
	if !ok {
		return
	}
	p.from = u
	p.hops++
	nw.sendTo(p, u, rr.NextHop, now)
}

// olsrNextHop resolves the link-state next hop toward dst at nd, lazily
// recomputing routes when the node's hello table moved or a TC arrived
// since the last computation. The 1-hop links fed to BFS are nd's
// *logical* neighbors, not everyone heard: routes must ride links the
// topology layer will actually carry (a logical neighbor is within the
// sender's controlled range by construction).
//
//manet:noalloc
func (ts *trafficState) olsrNextHop(nd *node, dst int, now float64) (int, bool) {
	ls := ts.ls[nd.id]
	if ls.Dirty() || ts.lsV[nd.id] != nd.table.Version() {
		ts.lsV[nd.id] = nd.table.Version()
		ls.Recompute(nd.id, nd.logical)
	}
	return ls.NextHop(dst)
}

// originateTC emits one topology-control message from nd: its current
// MPR-selector set (the neighbors whose latest hello names nd as MPR)
// under a fresh ANSN. Nodes nobody selected stay silent.
func (ts *trafficState) originateTC(nd *node, now sim.Time) {
	ts.msgBuf = nd.table.LatestInto(ts.msgBuf[:0], now)
	count := 0
	for _, m := range ts.msgBuf {
		if namesMPR(m, nd.id) {
			count++
		}
	}
	if count == 0 {
		return
	}
	// The selector set travels in the packet (shared across receivers and
	// copied on ingestion), so it must be freshly allocated, exact-sized.
	sel := make([]int, 0, count)
	for _, m := range ts.msgBuf {
		if namesMPR(m, nd.id) {
			sel = append(sel, m.From)
		}
	}
	ts.ansn[nd.id]++
	// Record the own advertisement locally too: the originator's link
	// state should know its own selector links.
	ts.ls[nd.id].RecordTC(nd.id, ts.ansn[nd.id], sel)
	p := trafficPacket{kind: pktTC, from: nd.id, origin: nd.id, hops: 1,
		id: ts.ansn[nd.id], sel: sel}
	ts.nw.broadcastCtrl(p, nd.id, now)
}

// handleTC ingests a topology-control message at node u and re-floods it
// per the MPR forwarding rule: only nodes the sender selected as MPR
// retransmit, and only first (fresh-ANSN) copies.
func (nw *Network) handleTC(p trafficPacket, u int, now sim.Time) {
	ts := nw.traf
	if !ts.ls[u].RecordTC(p.origin, p.id, p.sel) {
		return // stale or duplicate
	}
	if !ts.selectedBy(u, p.from, now) {
		return // not the sender's MPR: deliver but do not re-forward
	}
	p.from = u
	p.hops++
	nw.broadcastCtrl(p, u, now)
}

// selectedBy reports whether s's latest hello in u's table names u as MPR.
func (ts *trafficState) selectedBy(u, s int, now float64) bool {
	ts.histBuf = ts.nw.nodes[u].table.HistoryInto(ts.histBuf[:0], s, now)
	return len(ts.histBuf) > 0 && namesMPR(ts.histBuf[0], u)
}

// helloPayload builds the OLSR gossip of an outgoing hello: the sender's
// current neighbor list and its MPR selection over the gossiped 2-hop
// neighborhood (nil outside OLSR mode). The payload travels in every
// receiver's stored message, so it is freshly allocated (exact-sized)
// rather than scratch-backed.
func (ts *trafficState) helloPayload(nd *node, now float64) *hello.Payload {
	if ts.cfg.Mode != traffic.OLSR {
		return nil
	}
	// Gossip the *logical* selection (one beacon stale: sendHello builds
	// the payload before re-selecting), so 2-hop sets, MPRs, and the
	// link-state graph all describe links data can traverse.
	p := &hello.Payload{Neighbors: append(make([]int, 0, len(nd.logical)), nd.logical...)}
	p.MPRs = ts.computeMPRs(nd, now)
	ts.ls[nd.id].MarkDirty() // our own links may have changed
	return p
}

// namesMPR reports whether hello m names u among the sender's MPRs.
func namesMPR(m hello.Message, u int) bool {
	return m.Payload != nil && containsInt(m.Payload.MPRs, u)
}

// computeMPRs selects nd's multipoint relays from its current *logical*
// 1-hop set and the 2-hop neighborhood those neighbors gossiped (their own
// logical selections, carried in hello payloads).
func (ts *trafficState) computeMPRs(nd *node, now float64) []int {
	ts.msgBuf = nd.table.LatestInto(ts.msgBuf[:0], now)
	ts.nbrBuf = append(ts.nbrBuf[:0], nd.logical...)
	for _, id := range ts.nbrBuf {
		ts.nbrMask[id] = true
	}
	ts.nbrMask[nd.id] = true
	if cap(ts.twoHop) < len(ts.nbrBuf) {
		ts.twoHop = make([][]int, len(ts.nbrBuf)*2)
	}
	ts.twoHop = ts.twoHop[:len(ts.nbrBuf)]
	for i, id := range ts.nbrBuf {
		lst := ts.twoHop[i][:0]
		for _, m := range ts.msgBuf {
			if m.From != id {
				continue
			}
			if m.Payload == nil {
				break
			}
			for _, x := range m.Payload.Neighbors {
				if !ts.nbrMask[x] {
					lst = append(lst, x)
				}
			}
			break
		}
		ts.twoHop[i] = lst
	}
	mprs := traffic.SelectMPRs(ts.nbrBuf, ts.twoHop, nil)
	for _, id := range ts.nbrBuf {
		ts.nbrMask[id] = false
	}
	ts.nbrMask[nd.id] = false
	return mprs
}

// containsInt reports whether a contains x (the sets are tiny).
func containsInt(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}
