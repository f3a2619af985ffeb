package manet

import (
	"math"

	"mstc/internal/hello"
	"mstc/internal/sim"
)

// "Hello" reception. Every beacon reception, on either engine, ends in
// observe. When the non-ideal channel (internal/channel) defers deliveries,
// each reception first waits out an independent bounded delay (≤ Δ″), the
// regime Theorem 5's buffer zone l = 2·Δ″·v is designed for: on the serial
// engine as a pooled helloDelivery actor, on the region-parallel engine on
// its receiver's domain heap.

// observe is one "Hello" reception: receiver rid stores msg. The hello
// table keeps the k highest versions per sender, so out-of-order arrivals
// — a short delay overtaking a long one — resolve correctly without
// reordering here.
//
//manet:noalloc
func (nw *Network) observe(rid int, msg hello.Message) {
	nw.nodes[rid].table.Observe(msg)
}

// receive hands a beacon sent at msg.SentAt to its receivers on the serial
// engine: each after its own channel delay, or at once.
func (nw *Network) receive(msg hello.Message, receivers []int) {
	if nw.ch.DelayEnabled() {
		nw.scheduleHellos(msg, receivers)
		return
	}
	for _, rid := range receivers {
		nw.observe(rid, msg)
	}
}

// helloRecv is one pending delayed "Hello" reception.
type helloRecv struct {
	rid int
	msg hello.Message
}

// helloDelivery is a helloRecv scheduled on the serial engine as a pooled
// actor: the struct pointer rides in the event queue's interface value, so a
// delayed beacon costs no closure allocation.
type helloDelivery struct {
	nw *Network
	helloRecv
}

// Act resolves the delivery.
//
//manet:noalloc
func (d *helloDelivery) Act(sim.Time) {
	nw, r := d.nw, d.helloRecv
	nw.hellos.put(d)
	nw.observe(r.rid, r.msg)
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
		d := nw.hellos.get()
		*d = helloDelivery{nw: nw, helloRecv: helloRecv{rid: rid, msg: msg}}
		nw.eng.ScheduleActorIn(nw.ch.HelloDelay(msg.From, rid, sent), d)
	}
}

// pool is a freelist of pooled event actors. Scheduling a pooled actor
// costs no closure allocation, and once the freelist covers the in-flight
// maximum the steady state allocates nothing.
type pool[T any] struct{ free []*T }

// get pops a pooled value with every field zero (or allocates the pool's
// next one); the caller fills it.
func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	//lint:ignore noalloc pool growth: allocates only until the freelist covers the in-flight maximum, then steady state is allocation-free
	return new(T)
}

// put zeroes x, dropping every reference its payload holds, and pushes it
// back on the freelist.
func (p *pool[T]) put(x *T) {
	var zero T
	*x = zero
	p.free = append(p.free, x)
}
