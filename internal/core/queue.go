package core

import "score/internal/cachebuf"

// restoreQueue is the per-process restore-order queue of §4.1.1: the
// application (or higher-level middleware) enqueues hints about future
// restores; hints cannot be revoked; reads may deviate from the hints at a
// performance penalty.
//
// Positions are indexes into hints: consuming at the head moves the head,
// not the hints, so a pending hint's position changes only when a deviating
// restore cuts out a hint in front of it. The eviction entries store these
// positions (Client.consumeHintLocked keeps them true).
//
// All methods require external synchronization (the Client's mutex).
type restoreQueue struct {
	hints []ID
	head  int // hints[:head] have been consumed
	pf    int // next index the prefetcher should work on (>= head)
}

// enqueue appends a hint and returns its position.
func (q *restoreQueue) enqueue(id ID) int {
	q.hints = append(q.hints, id)
	return len(q.hints) - 1
}

// pending returns the number of unconsumed hints.
func (q *restoreQueue) pending() int { return len(q.hints) - q.head }

// at returns the hint at queue position i (0 = head).
func (q *restoreQueue) at(i int) (ID, bool) {
	idx := q.head + i
	if idx < len(q.hints) {
		return q.hints[idx], true
	}
	return 0, false
}

// firstPending returns the position of id's first pending hint, or
// cachebuf.NoHint: a linear scan, once per Checkpoint and per Restore.
func (q *restoreQueue) firstPending(id ID) int {
	for i := q.head; i < len(q.hints); i++ {
		if q.hints[i] == id {
			return i
		}
	}
	return cachebuf.NoHint
}

// consume removes id's first pending occurrence and returns the position
// it held. It reports whether the restore deviated from the hint order (id
// was hinted but not at the head): the hint is then cut out and every hint
// behind it moves down one. Unhinted ids (at < 0) leave the queue untouched
// and do not count as deviations of the queue itself.
func (q *restoreQueue) consume(id ID) (at int, deviated bool) {
	at = q.firstPending(id)
	switch {
	case at < 0:
		return at, false
	case at == q.head:
		q.head++
		if q.pf < q.head {
			q.pf = q.head
		}
		return at, false
	}
	q.hints = append(q.hints[:at], q.hints[at+1:]...)
	if q.pf > at {
		q.pf--
	}
	return at, true
}

// nextPrefetch returns the hint the prefetcher should promote next.
func (q *restoreQueue) nextPrefetch() (ID, bool) {
	if q.pf < q.head {
		q.pf = q.head
	}
	if q.pf < len(q.hints) {
		return q.hints[q.pf], true
	}
	return 0, false
}

// advancePrefetch moves past the current prefetch target.
func (q *restoreQueue) advancePrefetch() { q.pf++ }

// idFIFO is the flush queues' FIFO. Popping advances a head cursor and
// periodically compacts the backing array — the naive `q = q[1:]`
// re-slice never lets the garbage collector reclaim popped slots, so on
// long runs the queue's footprint grows with the historical total
// instead of the pending count.
//
// All methods require external synchronization (the Client's mutex).
type idFIFO struct {
	ids  []ID
	head int
}

// push appends id to the tail.
func (f *idFIFO) push(id ID) { f.ids = append(f.ids, id) }

// pop removes and returns the head; ok=false when empty.
func (f *idFIFO) pop() (id ID, ok bool) {
	if f.head >= len(f.ids) {
		return 0, false
	}
	id = f.ids[f.head]
	f.head++
	if f.head > 32 && f.head*2 >= len(f.ids) {
		// The dead prefix dominates: slide the pending tail down so the
		// old backing array (and the IDs it pins) can be collected.
		n := copy(f.ids, f.ids[f.head:])
		f.ids = f.ids[:n]
		f.head = 0
	}
	return id, true
}

// len returns the number of pending ids.
func (f *idFIFO) len() int { return len(f.ids) - f.head }
