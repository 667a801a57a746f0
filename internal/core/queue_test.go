package core

import (
	"testing"
	"testing/quick"

	"score/internal/cachebuf"
)

// distance restates the prefetch distance from the hints alone: queue
// positions between the head and id's first pending hint.
func (q *restoreQueue) distance(id ID) int {
	if pos := q.firstPending(id); pos != cachebuf.NoHint {
		return pos - q.head
	}
	return cachebuf.GapDistance - 1
}

func TestQueueFIFOConsumption(t *testing.T) {
	var q restoreQueue
	for i := ID(0); i < 5; i++ {
		q.enqueue(i)
	}
	if q.pending() != 5 {
		t.Fatalf("pending = %d", q.pending())
	}
	head, ok := q.at(0)
	if !ok || head != 0 {
		t.Fatalf("head = %d, %v", head, ok)
	}
	if at, dev := q.consume(0); dev || at != 0 {
		t.Errorf("in-order consume = position %d, deviation %v", at, dev)
	}
	if head, _ := q.at(0); head != 1 {
		t.Errorf("head after consume = %d", head)
	}
}

func TestQueueDeviationRemovesMidEntry(t *testing.T) {
	var q restoreQueue
	for i := ID(0); i < 5; i++ {
		q.enqueue(i)
	}
	if at, dev := q.consume(3); !dev || at != 3 {
		t.Errorf("out-of-order consume = position %d, deviation %v", at, dev)
	}
	// 3 must be gone; 0,1,2,4 remain in order.
	want := []ID{0, 1, 2, 4}
	for _, w := range want {
		if got, ok := q.at(0); !ok || got != w {
			t.Fatalf("head = %d, want %d", got, w)
		}
		q.consume(w)
	}
	if q.pending() != 0 {
		t.Errorf("pending = %d after draining", q.pending())
	}
}

func TestQueueConsumeUnhinted(t *testing.T) {
	var q restoreQueue
	q.enqueue(1)
	if at, dev := q.consume(99); dev || at != cachebuf.NoHint {
		t.Errorf("consuming an unhinted id = position %d, deviation %v", at, dev)
	}
	if q.pending() != 1 {
		t.Error("unhinted consume must not change the queue")
	}
}

func TestQueueDistance(t *testing.T) {
	var q restoreQueue
	for i := ID(10); i < 15; i++ {
		q.enqueue(i)
	}
	q.consume(10)
	if d := q.distance(11); d != 0 {
		t.Errorf("distance(head) = %d, want 0", d)
	}
	if d := q.distance(14); d != 3 {
		t.Errorf("distance(14) = %d, want 3", d)
	}
	if d := q.distance(99); d != cachebuf.GapDistance-1 {
		t.Errorf("distance(unhinted) = %d, want GapDistance-1", d)
	}
}

func TestQueuePrefetchCursor(t *testing.T) {
	var q restoreQueue
	for i := ID(0); i < 4; i++ {
		q.enqueue(i)
	}
	id, ok := q.nextPrefetch()
	if !ok || id != 0 {
		t.Fatalf("nextPrefetch = %d, %v", id, ok)
	}
	q.advancePrefetch()
	if id, _ := q.nextPrefetch(); id != 1 {
		t.Errorf("after advance, nextPrefetch = %d", id)
	}
	// Consuming ahead of the cursor keeps it valid.
	q.consume(0)
	q.consume(1) // removes the current prefetch target
	if id, ok := q.nextPrefetch(); !ok || id != 2 {
		t.Errorf("after consuming past cursor, nextPrefetch = %d, %v", id, ok)
	}
	// Deviating consume of a later element adjusts the cursor.
	q.enqueue(9)
	q.consume(9)
	if id, ok := q.nextPrefetch(); !ok || id != 2 {
		t.Errorf("after deviation, nextPrefetch = %d, %v", id, ok)
	}
}

func TestQueueRepeatedHints(t *testing.T) {
	// The same version may be hinted multiple times (revolve schedules
	// re-read stored checkpoints).
	var q restoreQueue
	q.enqueue(7)
	q.enqueue(8)
	q.enqueue(7)
	if _, dev := q.consume(7); dev {
		t.Error("first 7 is at head")
	}
	if d := q.distance(7); d != 1 {
		t.Errorf("distance(second 7) = %d, want 1", d)
	}
	q.consume(8)
	if got, ok := q.at(0); !ok || got != 7 {
		t.Errorf("head = %d, want second 7", got)
	}
}

func TestQueueAtIndexing(t *testing.T) {
	var q restoreQueue
	for i := ID(0); i < 3; i++ {
		q.enqueue(i)
	}
	q.consume(0)
	if id, ok := q.at(0); !ok || id != 1 {
		t.Errorf("at(0) = %d, %v", id, ok)
	}
	if id, ok := q.at(1); !ok || id != 2 {
		t.Errorf("at(1) = %d, %v", id, ok)
	}
	if _, ok := q.at(2); ok {
		t.Error("at(2) should be out of range")
	}
}

func TestQueueConsumeEverythingProperty(t *testing.T) {
	// Property: consuming all hinted ids in any order drains the queue,
	// and the number of deviations equals the number of out-of-head
	// consumptions.
	f := func(perm []uint8) bool {
		n := len(perm)
		if n == 0 {
			return true
		}
		if n > 32 {
			perm = perm[:32]
			n = 32
		}
		var q restoreQueue
		for i := 0; i < n; i++ {
			q.enqueue(ID(i))
		}
		// Build a consumption order from perm (a permutation-ish
		// shuffle by repeated selection).
		order := make([]ID, 0, n)
		remaining := make([]ID, n)
		for i := range remaining {
			remaining[i] = ID(i)
		}
		for i := 0; i < n; i++ {
			k := int(perm[i%len(perm)]) % len(remaining)
			order = append(order, remaining[k])
			remaining = append(remaining[:k], remaining[k+1:]...)
		}
		for _, id := range order {
			q.consume(id)
		}
		return q.pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
