package manet

import (
	"math"

	"mstc/internal/hello"
	"mstc/internal/sim"
)

// Delayed "Hello" delivery — the manet end of the non-ideal channel
// subsystem (internal/channel). When the channel defers deliveries, each
// reception becomes a pooled sim.Actor scheduled at send time + an
// independent bounded delay (≤ Δ″), the regime Theorem 5's buffer zone
// l = 2·Δ″·v is designed for. Deliveries are pooled on the Network exactly
// like flood deliveries: the struct pointer rides in the event queue's
// interface value, so a delayed beacon costs no closure allocation.

// helloDelivery is one pending delayed "Hello" reception.
type helloDelivery struct {
	nw   *Network
	msg  hello.Message
	rid  int
	next *helloDelivery // freelist link, nil while scheduled
}

// Act resolves the delivery: the receiver observes the (by now stale)
// advertisement unless it is down at delivery time. The hello table keeps
// the k highest versions per sender, so out-of-order arrivals — a short
// delay overtaking a long one — resolve correctly without reordering here.
//
//manet:noalloc
func (d *helloDelivery) Act(now sim.Time) {
	nw, msg, rid := d.nw, d.msg, d.rid
	nw.releaseHelloDelivery(d)
	if !nw.nodes[rid].isDown(now) {
		nw.nodes[rid].table.Observe(msg)
	}
}

// scheduleHellos defers msg's delivery to every receiver by an independent
// channel delay, keyed by (sender, receiver, send instant) — a pure
// function of the delivery's identity, so the serial engine and the
// region-parallel delivery heaps resolve identical delays.
//
//manet:noalloc
func (nw *Network) scheduleHellos(msg hello.Message, receivers []int) {
	sent := math.Float64bits(msg.SentAt)
	for _, rid := range receivers {
		d := nw.newHelloDelivery()
		d.msg, d.rid = msg, rid
		nw.eng.ScheduleActorIn(nw.ch.HelloDelay(msg.From, rid, sent), d)
	}
}

// newHelloDelivery pops a pooled delivery (or allocates the pool's next one).
func (nw *Network) newHelloDelivery() *helloDelivery {
	if d := nw.freeHello; d != nil {
		nw.freeHello = d.next
		d.next = nil
		return d
	}
	//lint:ignore noalloc pool growth: allocates only until the freelist covers the in-flight maximum, then steady state is allocation-free
	return &helloDelivery{nw: nw}
}

// releaseHelloDelivery clears d (dropping the message's 2-hop payload
// reference, if any) and pushes it back on the freelist.
func (nw *Network) releaseHelloDelivery(d *helloDelivery) {
	*d = helloDelivery{nw: nw, next: nw.freeHello}
	nw.freeHello = d
}
