package slab

// Queue is a FIFO. The zero Queue is ready for use; its first Push makes
// a first block (Make). Pop advances a head index, and once the popped
// prefix is at least half the slice, the pending tail slides down to the
// front: the queue reuses one backing array, regrown only when more than
// its capacity is pending, where a slice re-sliced from the front and
// appended at the back regrows behind its dead head.
type Queue[T any] struct {
	items []T // pending from head on, in FIFO order
	head  int
}

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.items == nil {
		q.items = Make[T]()
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the head; ok is false when the queue is empty.
// No slot left behind keeps a popped value reachable.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	v, q.items[q.head] = q.items[q.head], v
	q.head++
	if q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v, true
}

// Len returns the number of pending elements.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }
