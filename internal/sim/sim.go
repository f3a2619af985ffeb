// Package sim is a minimal discrete-event simulation engine: a virtual
// clock and a pending-event queue with deterministic execution order.
//
// Events scheduled for the same instant run in FIFO order of scheduling
// (a monotone sequence number breaks timestamp ties), so simulations are
// bit-reproducible: the same seed and configuration always produce the same
// event interleaving regardless of host or GOMAXPROCS. Each Engine is
// single-threaded by design — cross-run parallelism lives one level up, in
// package experiment, where independent repetitions fan out over a worker
// pool with one Engine each.
package sim

import (
	"fmt"
	"math"
)

// Time is simulation time in seconds.
type Time = float64

// Event is a callback invoked at its scheduled instant.
type Event func(now Time)

// Actor is the allocation-conscious alternative to Event: scheduling a
// pointer-shaped Actor stores it in the queue as a plain interface value,
// so callers that pool their actor structs schedule without the per-event
// closure allocation an Event capture costs.
type Actor interface {
	Act(now Time)
}

// event is one queued callback: exactly one of fn and act is set.
type event struct {
	fn  Event
	act Actor
}

// run dispatches the event at its scheduled instant.
func (ev event) run(at Time) {
	if ev.act != nil {
		ev.act.Act(at)
		return
	}
	ev.fn(at)
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use at time 0.
type Engine struct {
	now     Time
	seq     uint64
	queue   Heap[event]
	stopped bool
}

// NewEngine returns a fresh engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues fn to run at the absolute instant at. Scheduling in the
// past (before Now) panics: it always indicates a logic error in the model,
// and silently reordering would corrupt causality.
func (e *Engine) Schedule(at Time, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	if math.IsNaN(at) {
		panic("sim: scheduling at NaN")
	}
	if fn == nil {
		panic("sim: nil event")
	}
	e.seq++
	e.queue.Push(at, e.seq, event{fn: fn})
}

// ScheduleIn enqueues fn to run after delay d (>= 0) from Now.
func (e *Engine) ScheduleIn(d Time, fn Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

// ScheduleActor enqueues a to run at the absolute instant at, interleaved
// with Event callbacks in the same timestamp-then-FIFO order.
func (e *Engine) ScheduleActor(at Time, a Actor) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	if math.IsNaN(at) {
		panic("sim: scheduling at NaN")
	}
	if a == nil {
		panic("sim: nil actor")
	}
	e.seq++
	e.queue.Push(at, e.seq, event{act: a})
}

// ScheduleActorIn enqueues a to run after delay d (>= 0) from Now.
func (e *Engine) ScheduleActorIn(d Time, a Actor) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.ScheduleActor(e.now+d, a)
}

// Every schedules fn at start and then every interval seconds forever
// (until the run horizon cuts it off). fn runs before the next occurrence
// is scheduled, so fn may Stop the engine to cancel the series.
func (e *Engine) Every(start, interval Time, fn Event) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	var tick Event
	tick = func(now Time) {
		fn(now)
		if !e.stopped {
			e.Schedule(now+interval, tick)
		}
	}
	e.Schedule(start, tick)
}

// NextAt returns the instant of the earliest pending event. ok is false
// when the queue is empty or the engine is stopped — the engine has nothing
// left to run. Callers that interleave engine events with externally driven
// work (the region-parallel hello loop) use it to bound how far they may
// advance before draining the engine.
func (e *Engine) NextAt() (at Time, ok bool) {
	if e.stopped || len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].At, true
}

// Step runs the next pending event, advancing the clock to it. It returns
// false if the queue is empty or the engine is stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	it := e.queue.Pop()
	e.now = it.At
	it.V.run(it.At)
	return true
}

// Run executes events in order until the queue is drained, the engine is
// stopped, or the next event lies strictly beyond until; the clock finishes
// at min(until, last event time) — it does not jump ahead to until.
// It returns the number of events executed.
func (e *Engine) Run(until Time) int {
	n := 0
	for !e.stopped && len(e.queue) > 0 && e.queue[0].At <= until {
		it := e.queue.Pop()
		e.now = it.At
		it.V.run(it.At)
		n++
	}
	return n
}

// Stop halts the engine: pending events are kept but no longer executed.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
