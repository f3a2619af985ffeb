package manet

import (
	"math"

	"mstc/internal/radio"
	"mstc/internal/sim"
)

// energyOf returns the normalized transmission energy of a packet sent at
// the given fraction of full range under path-loss exponent alpha.
func energyOf(rangeFrac, alpha float64) float64 {
	if rangeFrac <= 0 {
		return 0
	}
	return math.Pow(rangeFrac, alpha)
}

// flood tracks one network-wide broadcast probe.
type flood struct {
	id       uint64 // origination sequence number, keys jitter/delay draws
	src      int
	pin      uint64 // pinned view version (proactive scheme), 0 = unpinned
	accepted []bool // node has accepted (and will forward) the packet
	count    int    // accepted nodes including the source
}

// originateFlood starts one weak-connectivity probe from a uniformly random
// source (§5.1: broadcasts from random sources, 10 per second).
func (nw *Network) originateFlood(now sim.Time) {
	//lint:ignore substream historical draw order: source picks ride the root network stream; originations are globally ordered engine events in both engines, so the stream position matches
	src := nw.rng.Intn(len(nw.nodes))
	nw.floodSeq++
	fl := &flood{id: nw.floodSeq, src: src, accepted: make([]bool, len(nw.nodes))}
	if nw.cfg.Mech.Proactive {
		// Pin the last *complete* epoch: every node has advertised under
		// it and all those advertisements have propagated.
		if e := nw.epoch(now); e > 1 {
			fl.pin = e - 1
		} else {
			fl.pin = 1
		}
	}
	fl.accepted[src] = true
	fl.count = 1
	if nw.par != nil {
		// Region-parallel run: originations fire at engine fences, but the
		// forwarding cascade runs through the domain scan barriers.
		nw.par.floodTransmit(fl, src, now)
	} else {
		nw.transmit(fl, src, now)
	}
	nw.eng.ScheduleIn(nw.cfg.FloodSettle, func(sim.Time) {
		nw.floods++
		nw.deliverySum += float64(fl.count-1) / float64(len(nw.nodes)-1)
	})
}

// transmit is one node's broadcast of the flood packet: the sender (re-)
// selects under view synchronization, transmits with its current range, and
// receivers that accept schedule their own forwards after a small jitter.
//
// Acceptance follows the paper's forwarding rule exactly: the sender's
// logical neighbor set travels in the packet header and a receiver not in
// it drops the packet — unless the physical-neighbor mechanism is on.
// Unidirectional links are used as-is (§5.1).
func (nw *Network) transmit(fl *flood, sender int, now sim.Time) {
	nd := nw.nodes[sender]
	if nd.isDown(now) {
		return // failed between acceptance and forward
	}
	if fl.pin > 0 {
		// Proactive consistency: select on the view pinned to the
		// packet's version (§4.1).
		nw.selectAsOf(nd, now, fl.pin)
	} else if nw.cfg.Mech.ViewSync {
		// On-the-fly re-selection using the latest "Hello" information,
		// with the sender's own *advertised* position standing in for its
		// current one so that its local view matches what neighbors hold
		// (§5.1, "View synchronization").
		nw.updateSelection(nd, now, nd.advertisedPos)
	}
	nw.dataTx++
	nw.dataEnergy += energyOf(nd.txRange/nw.cfg.NormalRange, nw.cfg.EnergyAlpha)
	tx, receivers := nw.med.Transmit(now, sender, nd.txRange, nw.recvBuf[:0])
	nw.recvBuf = receivers
	airtime := nw.med.TxDuration()
	var senderCover map[int]bool
	if nw.cfg.Mech.SelfPruning {
		// The packet header additionally carries the sender's known 1-hop
		// neighborhood (it already carries the logical set). The map is
		// captured by the delayed delivery closures below, so it cannot be
		// scratch-backed.
		nw.msgBuf = nd.table.LatestInto(nw.msgBuf[:0], now)
		//lint:ignore noalloc the header map escapes into the delayed deliveries by design (see comment above); self-pruning runs accept this per-transmit cost
		senderCover = make(map[int]bool, len(nw.msgBuf)+1)
		senderCover[sender] = true
		for _, m := range nw.msgBuf {
			senderCover[m.From] = true
		}
	}
	for _, rid := range receivers {
		if fl.accepted[rid] {
			continue
		}
		if !nw.cfg.Mech.PhysicalNeighbors && !nd.hasLogical(rid) {
			continue // dropped at the topology layer
		}
		d := nw.newDelivery()
		d.fl, d.rid, d.tx, d.cover, d.airtime = fl, rid, tx, senderCover, airtime
		nw.eng.ScheduleActorIn(nw.floodDelay(fl, sender, rid, airtime), d)
	}
}

// floodDelay is the total deferral of one flood reception: airtime plus the
// constant per-hop radio delay plus the keyed forward jitter — and, on a
// non-ideal channel, the reception's own bounded random delay (≤ Δ″). Every
// random component is a pure function of (flood, forwarder, receiver), so
// the serial engine and the region-parallel flood rounds resolve identical
// deferrals regardless of evaluation order.
func (nw *Network) floodDelay(fl *flood, sender, rid int, airtime float64) float64 {
	//lint:ignore noalloc Derive is by-value and never retains its label slice, so both stay on the stack; TestNoallocAnnotationsConform pins the steady state at zero
	jit := nw.rng.Derive('j', fl.id, uint64(sender), uint64(rid))
	delay := airtime + nw.med.Delay() + jit.Uniform(0, nw.cfg.ForwardJitterMax)
	if nw.ch.DelayEnabled() {
		delay += nw.ch.FloodDelay(fl.id, sender, rid)
	}
	return delay
}

// delivery is one pending flood-packet reception. Deliveries are pooled on
// the Network (a singly-linked freelist) and scheduled as sim.Actors, so
// the per-receiver forwarding step costs no closure allocation — the struct
// pointer rides in the event queue's interface value as-is.
type delivery struct {
	nw      *Network
	fl      *flood
	rid     int
	tx      radio.Tx
	cover   map[int]bool // sender's covered set (self-pruning), nil otherwise
	airtime float64
	next    *delivery // freelist link, nil while scheduled
}

// Act resolves the delivery. Acceptance resolves here, at delivery time:
// the node may have accepted a concurrent copy meanwhile, and under the
// collision MAC this copy may have been jammed.
//
//manet:noalloc
func (d *delivery) Act(later sim.Time) {
	nw, fl, rid := d.nw, d.fl, d.rid
	tx, cover, airtime := d.tx, d.cover, d.airtime
	// Release before resolving: the recursive transmit below may pool new
	// deliveries, and d's payload is already copied out.
	nw.releaseDelivery(d)
	if fl.accepted[rid] || nw.nodes[rid].isDown(later) {
		return
	}
	if airtime > 0 && nw.med.Collides(tx, rid) {
		return
	}
	fl.accepted[rid] = true
	fl.count++
	if cover != nil && !nw.coversNew(rid, later, cover) {
		return // self-pruned: everything we reach was covered
	}
	if nw.cfg.Mech.CDSForward && !nw.nodes[rid].cdsMarked {
		return // non-gateway: deliver but do not re-forward
	}
	nw.transmit(fl, rid, later)
}

// newDelivery pops a pooled delivery (or allocates the pool's next one).
func (nw *Network) newDelivery() *delivery {
	if d := nw.freeDel; d != nil {
		nw.freeDel = d.next
		d.next = nil
		return d
	}
	//lint:ignore noalloc pool growth: allocates only until the freelist covers the in-flight maximum, then steady state is allocation-free
	return &delivery{nw: nw}
}

// releaseDelivery clears d's payload (dropping the flood and cover-map
// references) and pushes it back on the freelist.
func (nw *Network) releaseDelivery(d *delivery) {
	*d = delivery{nw: nw, next: nw.freeDel}
	nw.freeDel = d
}

// coversNew reports whether node id knows a neighbor outside the sender's
// covered set — the self-pruning forwarding condition.
func (nw *Network) coversNew(id int, now sim.Time, cover map[int]bool) bool {
	nw.msgBuf = nw.nodes[id].table.LatestInto(nw.msgBuf[:0], now)
	for _, m := range nw.msgBuf {
		if !cover[m.From] {
			return true
		}
	}
	return false
}
