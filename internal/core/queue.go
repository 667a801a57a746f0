package core

import (
	"score/internal/cachebuf"
	"score/internal/slab"
)

// restoreQueue is the per-process restore-order queue of §4.1.1: the
// application (or higher-level middleware) enqueues hints about future
// restores; hints cannot be revoked; reads may deviate from the hints at a
// performance penalty.
//
// Positions are indexes into hints: consuming at the head moves the head,
// not the hints, so a pending hint's position changes only when a deviating
// restore cuts out a hint in front of it. The eviction entries store these
// positions (Client.consumeHint keeps them true).
//
// The host stager's cursor st marks the end of the pending prefix
// hints[head:st] in which no hint is a staging candidate
// (Client.nextStageTarget), and stBytes is what the prefix spans.
// The search fills each hint's ck with its checkpoint record as it first
// passes it, so every record of the prefix is set, until the record is
// dropped (unlink). Whatever can make a hinted checkpoint a candidate again
// lowers the cursor to its position (reopen).
type restoreQueue struct {
	hints []hint
	head  int // hints[:head] have been consumed
	pf    int // next index the prefetcher should work on (>= head)

	st      int   // head <= st; hints[head:st] hold no staging candidate
	stBytes int64 // the bytes of hints[head:st]
}

// hint is one enqueued restore and the record the stager found for it.
type hint struct {
	id ID
	ck *checkpoint // nil until the stager passes it
}

// enqueue appends a hint, its record unset, and returns its position. The
// first one makes room for a block of hints.
func (q *restoreQueue) enqueue(id ID) int {
	if q.hints == nil {
		q.hints = slab.Make[hint]()
	}
	q.hints = append(q.hints, hint{id: id})
	return len(q.hints) - 1
}

// unlink clears the slots of ck's pending hints, lowering the stager cursor
// below them first: a walk stops at an unwritten slot.
func (q *restoreQueue) unlink(ck *checkpoint) {
	for i := q.head; i < len(q.hints); i++ {
		if q.hints[i].ck == ck {
			q.reopen(i)
			q.hints[i].ck = nil
		}
	}
}

// reopen lowers the stager cursor to pending position pos, if it is past it:
// the hint at pos may be a staging candidate again.
func (q *restoreQueue) reopen(pos int) {
	if pos < q.head {
		return // cachebuf.NoHint
	}
	for ; q.st > pos; q.st-- {
		q.stBytes -= q.hints[q.st-1].ck.size
	}
}

// cover extends the stager cursor over the hint at st, no candidate.
func (q *restoreQueue) cover() {
	q.stBytes += q.hints[q.st].ck.size
	q.st++
}

// cut takes position at out of the stager cursor's prefix before the hint
// there is consumed.
func (q *restoreQueue) cut(at int) {
	if at < q.st {
		q.stBytes -= q.hints[at].ck.size
		if at > q.head {
			q.st-- // the hints behind the cut move down one
		}
	}
}

// pending returns the number of unconsumed hints.
func (q *restoreQueue) pending() int { return len(q.hints) - q.head }

// at returns the hint at queue position i (0 = head).
func (q *restoreQueue) at(i int) (ID, bool) {
	idx := q.head + i
	if idx < len(q.hints) {
		return q.hints[idx].id, true
	}
	return 0, false
}

// firstPending returns the position of id's first pending hint, or
// cachebuf.NoHint: a linear scan, once per Checkpoint and per Restore.
func (q *restoreQueue) firstPending(id ID) int {
	for i := q.head; i < len(q.hints); i++ {
		if q.hints[i].id == id {
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
	if at < 0 {
		return at, false
	}
	q.cut(at)
	if at == q.head {
		q.head++
		q.st = max(q.st, q.head)
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
		return q.hints[q.pf].id, true
	}
	return 0, false
}

// prefetchPending reports whether nextPrefetch would return a hint,
// without moving the cursor.
func (q *restoreQueue) prefetchPending() bool { return max(q.pf, q.head) < len(q.hints) }

// advancePrefetch moves past the current prefetch target.
func (q *restoreQueue) advancePrefetch() { q.pf++ }
