package simclock

import (
	"fmt"
	"math/bits"
	"time"
)

// This file implements the hierarchical timer wheel that backs Virtual by
// default. See DESIGN.md §14 for the layout and invariants in prose.
//
// Deadlines are bucketed into wheelLevels levels of wheelSlots slots each.
// An entry for deadline d is filed at the level of the highest bit in
// which d differs from the wheel's base (the XOR rule): level
// (Len64(d^base)-1)/wheelBits, slot (d>>(level*wheelBits))&wheelMask. Two
// consequences make earliest-deadline resolution cheap and exact:
//
//   - Within a level, every live slot is strictly after the base's own
//     position at that level (same high fields, larger level field), so a
//     forward bitmap scan needs no wrap-around or revolution bookkeeping.
//   - Every live entry at level k has a smaller deadline than every live
//     entry at any level > k (its level-(k+1..) fields equal the base's,
//     while a higher-level entry exceeds the base in one of them), so the
//     earliest occupied level owns the next deadline.
//
// Resolution therefore scans levels bottom-up for the first occupied slot
// past the base position. A level-0 hit is an exact deadline: the slot
// drains into the ready queue (sorted by seq, the determinism tie-break).
// A higher-level hit only bounds the deadline: the wheel advances base to
// the slot's boundary and cascades the slot's entries down (strictly lower
// levels, by the XOR rule), then rescans. Each entry cascades at most once
// per level, so pushes and pops are O(levels) amortized.
//
// Entries are filed with a copy of the waiter's (deadline, seq) key. A
// pooled waiter may be recycled while stale entries for its previous
// incarnations are still filed (a signaled WaitTimeout leaves its timer
// behind, exactly as the old heap left fired entries); liveness is
// therefore "e.w.seq == e.seq && !e.w.fired", checked under the clock
// mutex. Stale entries are dropped whenever a drain or scan touches them;
// stale-only slots skipped by base (their bit lingers below the base
// position) are reaped when a later revolution rescans them, which is
// harmless: a cascade triggered by a stale-only slot advances base by at
// most the slot boundary, which the level ordering proves is still no
// later than any live deadline.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // 66 bits of deadline delta: centuries of simulated ns
)

// timerEntry is one filed timer. It carries copies of the waiter's key
// fields so waiter reuse cannot corrupt filing order, and doubles as a
// freelist node.
type timerEntry struct {
	w        *waiter
	deadline time.Duration
	seq      uint64
	next     *timerEntry
}

func (e *timerEntry) live() bool { return e.w.seq == e.seq && !e.w.fired }

// timerQueue is the pending-timer store behind a Virtual clock. All
// methods are called with the clock mutex held. The wheel is the default;
// the heap in heapq.go is retained as the reference implementation for
// differential tests (WithHeapTimers).
type timerQueue interface {
	// push files w under the given deadline and seq (already assigned).
	push(w *waiter, deadline time.Duration, seq uint64)
	// pop removes and returns the earliest live timer, if any.
	pop() (w *waiter, deadline time.Duration, ok bool)
	// markStale records that a live filed timer was invalidated out of
	// band (its waiter was signaled before the timeout).
	markStale()
	// hasLive reports whether any live timer is filed.
	hasLive() bool
}

type wheelSlot struct{ head, tail *timerEntry }

func (s *wheelSlot) append(e *timerEntry) {
	e.next = nil
	if s.tail == nil {
		s.head = e
	} else {
		s.tail.next = e
	}
	s.tail = e
}

type timerWheel struct {
	slots [wheelLevels][wheelSlots]wheelSlot
	occ   [wheelLevels]uint64 // per-level slot occupancy bitmap
	base  uint64              // ns; never exceeds the earliest live deadline
	live  int

	// ready holds the resolved frontier: live entries at exactly the base
	// deadline, sorted by seq, consumed front to back. Same-deadline
	// pushes land here directly (their seq is necessarily the largest).
	ready    []*timerEntry
	readyPos int

	free *timerEntry
}

func newTimerWheel() *timerWheel { return &timerWheel{} }

func (tw *timerWheel) alloc() *timerEntry {
	if e := tw.free; e != nil {
		tw.free = e.next
		e.next = nil
		return e
	}
	return &timerEntry{}
}

func (tw *timerWheel) release(e *timerEntry) {
	e.w = nil
	e.next = tw.free
	tw.free = e
}

func (tw *timerWheel) hasLive() bool { return tw.live > 0 }
func (tw *timerWheel) markStale()    { tw.live-- }

func (tw *timerWheel) push(w *waiter, deadline time.Duration, seq uint64) {
	e := tw.alloc()
	e.w, e.deadline, e.seq = w, deadline, seq
	tw.live++
	tw.file(e)
}

// file places e by its deadline relative to the current base. Entries at
// the base deadline join the ready queue; later ones are bucketed.
func (tw *timerWheel) file(e *timerEntry) {
	d := uint64(e.deadline)
	if d < tw.base {
		panic(fmt.Sprintf("simclock: timer wheel filed past deadline %d < base %d", d, tw.base))
	}
	if d == tw.base {
		tw.readyInsert(e)
		return
	}
	level := (bits.Len64(d^tw.base) - 1) / wheelBits
	slot := (d >> (level * wheelBits)) & wheelMask
	tw.slots[level][slot].append(e)
	tw.occ[level] |= 1 << slot
}

// readyInsert adds e to the ready queue keeping it sorted by seq. Direct
// pushes append in O(1) (monotone seq); cascaded batches may need a short
// insertion walk.
func (tw *timerWheel) readyInsert(e *timerEntry) {
	tw.ready = append(tw.ready, e)
	for i := len(tw.ready) - 1; i > tw.readyPos && tw.ready[i-1].seq > tw.ready[i].seq; i-- {
		tw.ready[i-1], tw.ready[i] = tw.ready[i], tw.ready[i-1]
	}
}

// skipStaleReady drops consumed-or-stale entries from the ready front and
// reports whether a live resolved entry remains.
func (tw *timerWheel) skipStaleReady() bool {
	for tw.readyPos < len(tw.ready) {
		e := tw.ready[tw.readyPos]
		if e.live() {
			return true
		}
		tw.ready[tw.readyPos] = nil
		tw.readyPos++
		tw.release(e)
	}
	tw.ready = tw.ready[:0]
	tw.readyPos = 0
	return false
}

func (tw *timerWheel) pop() (*waiter, time.Duration, bool) {
	if !tw.resolve() {
		return nil, 0, false
	}
	e := tw.ready[tw.readyPos]
	tw.ready[tw.readyPos] = nil
	tw.readyPos++
	w, deadline := e.w, e.deadline
	tw.release(e)
	tw.live--
	return w, deadline, true
}

// resolve advances the wheel until the ready front holds the earliest live
// timer, cascading buckets downward as base moves. Returns false when no
// live timer is filed.
func (tw *timerWheel) resolve() bool {
	for {
		if tw.skipStaleReady() {
			return true
		}
		if tw.live == 0 {
			return false
		}
		advanced := false
		for level := 0; level < wheelLevels; level++ {
			pos := (tw.base >> (level * wheelBits)) & wheelMask
			// Bits at or below the base position are stale leftovers from
			// slots the base has already passed (live entries can't hide
			// there: base never passes a live deadline). Reap them now so
			// the bit doesn't alias a future revolution.
			if behind := tw.occ[level] & (1<<pos<<1 - 1); behind != 0 {
				for b := behind; b != 0; b &= b - 1 {
					tw.reapStaleSlot(level, uint64(bits.TrailingZeros64(b)))
				}
				tw.occ[level] &^= behind
			}
			ahead := tw.occ[level] &^ (1<<pos<<1 - 1)
			if ahead == 0 {
				continue
			}
			slot := uint64(bits.TrailingZeros64(ahead))
			if level == 0 {
				tw.base = tw.base&^wheelMask | slot
				tw.drainToReady(0, slot)
			} else {
				shift := uint(level * wheelBits)
				tw.base = tw.base&^(1<<(shift+wheelBits)-1) | slot<<shift
				tw.cascade(level, slot)
			}
			advanced = true
			break
		}
		if !advanced {
			panic(fmt.Sprintf("simclock: timer wheel lost %d live timer(s)", tw.live))
		}
	}
}

func (tw *timerWheel) detach(level int, slot uint64) *timerEntry {
	s := &tw.slots[level][slot]
	head := s.head
	s.head, s.tail = nil, nil
	tw.occ[level] &^= 1 << slot
	return head
}

// reapStaleSlot frees a slot the base has already passed; every entry in
// it is necessarily stale.
func (tw *timerWheel) reapStaleSlot(level int, slot uint64) {
	for e := tw.detach(level, slot); e != nil; {
		next := e.next
		if e.live() {
			panic("simclock: timer wheel passed a live deadline")
		}
		tw.release(e)
		e = next
	}
}

// drainToReady moves a level-0 slot — entries sharing one exact deadline —
// into the ready queue, dropping stale ones.
func (tw *timerWheel) drainToReady(level int, slot uint64) {
	for e := tw.detach(level, slot); e != nil; {
		next := e.next
		if e.live() {
			tw.readyInsert(e)
		} else {
			tw.release(e)
		}
		e = next
	}
}

// cascade refiles a higher-level slot's entries now that base has advanced
// to the slot's boundary; the XOR rule sends each strictly downward (or to
// ready when the deadline equals the new base).
func (tw *timerWheel) cascade(level int, slot uint64) {
	for e := tw.detach(level, slot); e != nil; {
		next := e.next
		if e.live() {
			tw.file(e)
		} else {
			tw.release(e)
		}
		e = next
	}
}
