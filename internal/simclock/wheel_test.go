package simclock

import (
	"testing"
	"time"
)

// These tests check the timer wheel differentially against a naive
// reference: a flat list whose earliest timer is found by scanning the
// full (deadline, seq) sort key. The wheel must pop the exact same
// sequence — deadline resolution, seq tie-breaks, and stale-entry
// reaping included — for any operation interleaving.

// naiveEntry mirrors one live filed timer in the reference model.
type naiveEntry struct {
	w        *waiter
	deadline time.Duration
	seq      uint64
}

// naiveMin returns the index of the earliest (deadline, seq) entry, or
// -1 when the model is empty.
func naiveMin(model []naiveEntry) int {
	best := -1
	for i, e := range model {
		if best < 0 || e.deadline < model[best].deadline ||
			(e.deadline == model[best].deadline && e.seq < model[best].seq) {
			best = i
		}
	}
	return best
}

// popBoth pops the earliest timer from the wheel and the model and
// fails the test on any divergence. Returns false when both are empty.
func popBoth(t *testing.T, tw timerQueue, model *[]naiveEntry, floor *time.Duration) bool {
	t.Helper()
	k := naiveMin(*model)
	w, d, ok := tw.pop()
	if k < 0 {
		if ok {
			t.Fatalf("wheel popped (deadline %v, seq %d); model is empty", d, w.seq)
		}
		return false
	}
	want := (*model)[k]
	if !ok {
		t.Fatalf("wheel empty; model expects (deadline %v, seq %d)", want.deadline, want.seq)
	}
	if w != want.w || d != want.deadline {
		t.Fatalf("wheel popped (deadline %v, seq %d); model expects (deadline %v, seq %d)",
			d, w.seq, want.deadline, want.seq)
	}
	// Mirror wakeTimerLocked: a popped waiter is consumed, so lingering
	// duplicate filings (none here, but the liveness rule allows them)
	// would read as stale.
	w.fired = true
	*model = append((*model)[:k], (*model)[k+1:]...)
	if d > *floor {
		*floor = d
	}
	return true
}

// driveTimerQueue interprets data as an operation stream against both
// the wheel and the naive model, then drains and compares the tails.
func driveTimerQueue(t *testing.T, data []byte) {
	tw := newTimerWheel()
	var model []naiveEntry
	var seq uint64
	var floor time.Duration // wheel base never exceeds this

	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	// delta reads a deadline offset: two bytes of magnitude shifted by up
	// to 40 bits crosses many wheel levels, exercising cascades; delta 0
	// lands on the ready queue (same-deadline push).
	delta := func() time.Duration {
		lo, hi, sh := next(), next(), next()
		return (time.Duration(hi)<<8 | time.Duration(lo)) << (sh % 40)
	}
	for i < len(data) {
		switch op := next(); op % 5 {
		case 0, 1: // push (weighted: two fifths of the stream)
			d := floor + delta()
			w := &waiter{seq: seq, timed: true}
			tw.push(w, d, seq)
			model = append(model, naiveEntry{w: w, deadline: d, seq: seq})
			seq++
		case 2: // pop
			popBoth(t, tw, &model, &floor)
		case 3: // invalidate a live timer out of band (signal before expiry)
			if len(model) > 0 {
				k := int(next()) % len(model)
				model[k].w.fired = true
				tw.markStale()
				model = append(model[:k], model[k+1:]...)
			}
		case 4: // retime a live timer, as vcond.Retime does: fresh seq, re-filed or cleared
			if len(model) > 0 {
				k := int(next()) % len(model)
				drop := next()%4 == 0
				d := floor + delta()
				w := model[k].w
				w.seq = seq
				seq++
				tw.markStale()
				if drop {
					model = append(model[:k], model[k+1:]...)
					continue
				}
				tw.push(w, d, w.seq)
				model[k] = naiveEntry{w: w, deadline: d, seq: w.seq}
			}
		}
	}
	for popBoth(t, tw, &model, &floor) {
	}
	if tw.hasLive() {
		t.Fatal("wheel reports live timers after full drain")
	}
}

// FuzzTimerWheelVsNaiveModel fuzzes arbitrary push/pop/invalidate/retime
// interleavings through driveTimerQueue.
func FuzzTimerWheelVsNaiveModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 0, 255, 255, 30, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 2})                     // same-deadline pile-up
	f.Add([]byte{0, 10, 0, 39, 0, 10, 0, 0, 3, 0, 2, 2})            // far deadline then invalidate
	f.Add([]byte{1, 1, 0, 20, 1, 1, 0, 10, 1, 1, 0, 0, 2, 2, 2, 2}) // descending level pushes
	f.Add([]byte{0, 0, 1, 30, 0, 5, 0, 0, 4, 0, 1, 0, 0, 0, 2, 2})  // far deadline retimed to a tie
	f.Add([]byte{0, 7, 0, 0, 0, 9, 0, 0, 4, 1, 0, 0, 0, 0, 2, 2})   // a retime that clears
	f.Fuzz(func(t *testing.T, data []byte) {
		driveTimerQueue(t, data)
	})
}

// TestTimerWheelVsNaiveModelSeeded runs the fuzz corpus shapes plus a
// long deterministic pseudo-random stream, so `go test` exercises the
// differential even when the fuzz engine never runs.
func TestTimerWheelVsNaiveModelSeeded(t *testing.T) {
	long := make([]byte, 4096)
	x := uint32(2023)
	for i := range long {
		x = x*1664525 + 1013904223
		long[i] = byte(x >> 24)
	}
	driveTimerQueue(t, long)
}

// TestTimerWheelCascadeExact pins the cascade path: timers far enough
// apart to occupy different levels must still pop in deadline order
// with same-deadline ties broken by seq.
func TestTimerWheelCascadeExact(t *testing.T) {
	tw := newTimerWheel()
	deadlines := []time.Duration{
		1 << 40, 1 << 20, 1 << 7, 1 << 7, 1, 1 << 20, 0,
	}
	ws := make([]*waiter, len(deadlines))
	for i, d := range deadlines {
		ws[i] = &waiter{seq: uint64(i), timed: true}
		tw.push(ws[i], d, uint64(i))
	}
	want := []int{6, 4, 2, 3, 1, 5, 0} // indices by (deadline, seq)
	for _, wi := range want {
		w, d, ok := tw.pop()
		if !ok {
			t.Fatalf("wheel empty; expected waiter %d", wi)
		}
		if w != ws[wi] {
			t.Fatalf("popped seq %d (deadline %v); expected seq %d (deadline %v)",
				w.seq, d, wi, deadlines[wi])
		}
		w.fired = true
	}
	if _, _, ok := tw.pop(); ok {
		t.Fatal("wheel not empty after draining every timer")
	}
}
