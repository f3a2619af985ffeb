package sim

// Entry is one queued value with its (At, Seq) ordering key.
type Entry[T any] struct {
	At  Time
	Seq uint64
	V   T
}

// Heap is a binary min-heap of entries ordered by At, then Seq. It is the
// one (time, sequence) queue of the simulator: the engine's pending-event
// queue and the region-parallel engine's deferred-reception and flood
// heaps. Entries stay in the slice by value and the sift compares the two
// key fields directly — container/heap would box every entry into an
// interface value (one allocation per push) and dispatch each comparison
// through an interface.
//
// Callers keep keys unique (a monotone or otherwise injective Seq per
// heap). With unique keys the pop order is the keys' total order, whatever
// order the entries were pushed in, so a heap can be refilled from any
// enumeration of its entries without changing what it yields. The zero
// value is an empty heap; h[0] is the minimum of a non-empty heap.
type Heap[T any] []Entry[T]

func (h Heap[T]) less(i, j int) bool {
	if h[i].At != h[j].At { //lint:ignore float-eq exact compare orders entries; equal instants fall through to Seq
		return h[i].At < h[j].At
	}
	return h[i].Seq < h[j].Seq
}

// Push inserts v under the key (at, seq) (sift-up).
//
//manet:noalloc
func (h *Heap[T]) Push(at Time, seq uint64, v T) {
	*h = append(*h, Entry[T]{At: at, Seq: seq, V: v})
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// Pop removes and returns the minimum entry (sift-down). The vacated slot
// is zeroed so the heap holds no reference to a popped value.
//
//manet:noalloc
func (h *Heap[T]) Pop() Entry[T] {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = Entry[T]{}
	q = q[:n]
	*h = q
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}
