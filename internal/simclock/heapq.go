package simclock

import (
	"container/heap"
	"time"
)

// timerHeapQ is the original binary-heap timer store, retained as the
// reference timerQueue: differential tests (TestWheelMatchesHeap, the
// cascade fuzz target) and WithHeapTimers run the identical clock on both
// backends and require bit-identical behavior. It shares timerEntry (and
// its liveness rule) with the wheel, and a freelist keeps it
// allocation-free in steady state so benchmark comparisons isolate the
// data structure, not the allocator.
type timerHeapQ struct {
	h    entryHeap
	live int
	free *timerEntry
}

func newTimerHeapQ() *timerHeapQ { return &timerHeapQ{} }

type entryHeap []*timerEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(*timerEntry)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (q *timerHeapQ) hasLive() bool { return q.live > 0 }
func (q *timerHeapQ) markStale()    { q.live-- }

func (q *timerHeapQ) push(w *waiter, deadline time.Duration, seq uint64) {
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
	} else {
		e = &timerEntry{}
	}
	e.w, e.deadline, e.seq = w, deadline, seq
	q.live++
	heap.Push(&q.h, e)
}

// dropStaleTop pops fired/recycled entries off the top so the heap head,
// if any, is live.
func (q *timerHeapQ) dropStaleTop() {
	for len(q.h) > 0 && !q.h[0].live() {
		e := heap.Pop(&q.h).(*timerEntry)
		e.w = nil
		e.next = q.free
		q.free = e
	}
}

func (q *timerHeapQ) pop() (*waiter, time.Duration, bool) {
	q.dropStaleTop()
	if len(q.h) == 0 {
		return nil, 0, false
	}
	e := heap.Pop(&q.h).(*timerEntry)
	w, deadline := e.w, e.deadline
	e.w = nil
	e.next = q.free
	q.free = e
	q.live--
	return w, deadline, true
}
