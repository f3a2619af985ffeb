package sim

import (
	"slices"
	"testing"

	"mstc/internal/xrand"
)

// TestHeapMatchesSortedOrder interleaves random pushes and pops and checks
// every pop against a reference kept sorted by (at, seq). Instants come
// from a small integer set, so most entries tie on at and must leave in
// push (seq) order — the engine's FIFO tie rule.
func TestHeapMatchesSortedOrder(t *testing.T) {
	type ref struct {
		at  Time
		seq uint64
	}
	cmp := func(a, b ref) int {
		if a.at != b.at { //lint:ignore float-eq exact compare orders the reference like the heap
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return int(a.seq) - int(b.seq)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		var h Heap[int]
		var want []ref
		seq := uint64(0)
		ties := 0
		for op := 0; op < 2000; op++ {
			if len(want) == 0 || rng.Intn(3) > 0 {
				seq++
				at := Time(rng.Intn(8))
				h.Push(at, seq, int(seq))
				want = append(want, ref{at, seq})
				continue
			}
			slices.SortFunc(want, cmp)
			e := h.Pop()
			if e.At != want[0].at || e.Seq != want[0].seq || e.V != int(want[0].seq) {
				t.Fatalf("seed %d op %d: popped (%v, %d, %d), want (%v, %d)",
					seed, op, e.At, e.Seq, e.V, want[0].at, want[0].seq)
			}
			if len(want) > 1 && want[1].at == e.At {
				ties++
			}
			want = want[1:]
			if len(h) != len(want) {
				t.Fatalf("seed %d op %d: heap holds %d entries, want %d", seed, op, len(h), len(want))
			}
		}
		slices.SortFunc(want, cmp)
		for len(h) > 0 {
			e := h.Pop()
			if e.At != want[0].at || e.Seq != want[0].seq {
				t.Fatalf("seed %d drain: popped (%v, %d), want (%v, %d)", seed, e.At, e.Seq, want[0].at, want[0].seq)
			}
			want = want[1:]
		}
		if ties == 0 {
			t.Fatalf("seed %d: no equal-instant pops; the FIFO tie rule went untested", seed)
		}
	}
}

// TestHeapPopOrderIgnoresPushOrder pins the property the region-parallel
// engine's snapshot re-homing relies on: with unique keys, a heap pops the
// same sequence whatever order its entries were pushed in.
func TestHeapPopOrderIgnoresPushOrder(t *testing.T) {
	rng := xrand.New(3)
	var a, b Heap[uint64]
	keys := make([]Entry[uint64], 300)
	for i := range keys {
		keys[i] = Entry[uint64]{At: Time(rng.Intn(20)), Seq: uint64(i), V: uint64(i)}
	}
	for _, e := range keys {
		a.Push(e.At, e.Seq, e.V)
	}
	for _, i := range rng.Perm(len(keys)) {
		b.Push(keys[i].At, keys[i].Seq, keys[i].V)
	}
	for len(a) > 0 {
		if x, y := a.Pop(), b.Pop(); x != y {
			t.Fatalf("pop order depends on push order: %+v vs %+v", x, y)
		}
	}
}

// ticker is a pooled-style actor that reschedules itself one period on.
type ticker struct {
	e      *Engine
	period Time
	n      int
}

func (a *ticker) Act(now Time) {
	a.n++
	a.e.ScheduleActor(now+a.period, a)
}

// TestActorLoopSteadyStateNoAlloc pins the engine's own hot path: once the
// queue has grown to its working size, a ScheduleActor → Run loop of
// pointer-shaped actors allocates nothing.
func TestActorLoopSteadyStateNoAlloc(t *testing.T) {
	e := NewEngine()
	actors := make([]*ticker, 64)
	for i := range actors {
		actors[i] = &ticker{e: e, period: 0.1 + 0.01*Time(i)}
		e.ScheduleActor(Time(i)*0.001, actors[i])
	}
	deadline := Time(5)
	e.Run(deadline) // warm up: the queue reaches its steady-state capacity
	events := 0
	if allocs := testing.AllocsPerRun(100, func() {
		deadline += 0.5
		events += e.Run(deadline)
	}); allocs != 0 {
		t.Errorf("actor loop: %.2f allocs per window, want 0", allocs)
	}
	if events == 0 {
		t.Fatal("measured windows ran no events; the measurement is vacuous")
	}
}
