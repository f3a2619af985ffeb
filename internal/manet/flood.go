package manet

import (
	"math"

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

// sendPreamble is the sender side every data transmission opens with, on
// either engine and for every packet kind: the sender re-selects (see
// reselect) and pays the energy of one transmission at its current range.
// The caller counts the transmission under its packet kind.
func (nw *Network) sendPreamble(nd *node, now sim.Time, pin uint64) {
	nw.reselect(nd, now, pin)
	nw.dataEnergy += energyOf(nd.txRange/nw.cfg.NormalRange, nw.cfg.EnergyAlpha)
}

// reselect is a forwarder's on-the-fly re-selection: on the view pinned to
// the packet's version under the proactive scheme (pin > 0, §4.1), else —
// under view synchronization — on the latest "Hello" information with the
// node's own *advertised* position standing in for its current one, so
// that its local view matches what neighbors hold (§5.1).
func (nw *Network) reselect(nd *node, now sim.Time, pin uint64) {
	if pin > 0 {
		nw.selectView(nd, now, selModeAsOf, pin, nd.ownAsOf(pin).Pos)
	} else if nw.cfg.Mech.ViewSync {
		nw.selectView(nd, now, selModeLatest, 0, nd.advertisedPos)
	}
}

// carries reports whether receiver rid accepts a packet from nd at the
// topology layer: rid is one of nd's logical neighbors (the set travels in
// the packet header), or the physical-neighbor mechanism is on.
// Unidirectional links are used as-is (§5.1).
func (nw *Network) carries(nd *node, rid int) bool {
	return nw.cfg.Mech.PhysicalNeighbors || nd.hasLogical(rid)
}

// transmit is one node's broadcast of the flood packet on the serial
// engine: the sender preamble, then every receiver the topology layer
// carries to schedules its reception after the per-hop delay and a small
// jitter.
func (nw *Network) transmit(fl *flood, sender int, now sim.Time) {
	nd := nw.nodes[sender]
	nw.sendPreamble(nd, now, fl.pin)
	nw.dataTx++
	receivers := nw.med.Transmit(now, sender, nd.txRange, nw.recvBuf[:0])
	nw.recvBuf = receivers
	for _, rid := range receivers {
		if fl.accepted[rid] || !nw.carries(nd, rid) {
			continue
		}
		d := nw.dels.get()
		*d = delivery{nw: nw, floodRecv: floodRecv{fl: fl, rid: rid}}
		nw.eng.ScheduleActorIn(nw.floodDelay(fl, sender, rid), d)
	}
}

// floodDelay is the total deferral of one flood reception: the keyed
// forward jitter — and, on a non-ideal
// channel, the reception's own bounded random delay (≤ Δ″). Every random
// component is a pure function of (flood, forwarder, receiver), so the
// serial engine and the region-parallel flood rounds resolve identical
// deferrals regardless of evaluation order.
func (nw *Network) floodDelay(fl *flood, sender, rid int) float64 {
	//lint:ignore noalloc Derive is by-value and never retains its label slice, so both stay on the stack; TestNoallocAnnotationsConform pins the steady state at zero
	jit := nw.rng.Derive('j', fl.id, uint64(sender), uint64(rid))
	delay := jit.Uniform(0, nw.cfg.ForwardJitterMax)
	if nw.ch.DelayEnabled() {
		delay += nw.ch.FloodDelay(fl.id, sender, rid)
	}
	return delay
}

// floodRecv is one pending flood-packet reception, as both engines queue
// it: the flood and the receiver.
type floodRecv struct {
	fl  *flood
	rid int
}

// accept is a flood reception's acceptance step, resolved at delivery
// time because the receiver may have accepted a concurrent copy
// meanwhile. It reports whether the receiver accepts — and so
// counts and forwards — the packet: blind flooding over the controlled
// topology (§5.1).
func (nw *Network) accept(r floodRecv) bool {
	fl, rid := r.fl, r.rid
	if fl.accepted[rid] {
		return false
	}
	fl.accepted[rid] = true
	fl.count++
	return true
}

// delivery is a floodRecv scheduled on the serial engine as a pooled
// actor, so the per-receiver forwarding step costs no closure allocation.
type delivery struct {
	nw *Network
	floodRecv
}

// Act resolves the delivery and forwards an accepted packet.
//
//manet:noalloc
func (d *delivery) Act(later sim.Time) {
	nw, r := d.nw, d.floodRecv
	// Release before resolving: the recursive transmit below may pool new
	// deliveries, and d's payload is already copied out.
	nw.dels.put(d)
	if nw.accept(r) {
		nw.transmit(r.fl, r.rid, later)
	}
}
