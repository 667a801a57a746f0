// Package simclock provides the time substrate for the Score runtime and
// its hardware simulators.
//
// Every component that sleeps, waits, or measures time does so through
// Virtual: a deterministic discrete-event clock. Exactly one task runs at
// a time, in the order tasks became ready, and simulated time advances
// instantly to the next pending timer whenever every task is blocked. A
// full paper-scale experiment (hundreds of gigabytes of simulated
// transfers) completes in milliseconds of wall time. Work that only reacts
// to a timer or a signal and never blocks in between can be an Event
// instead of a task: it is parked and readied like a task, and the clock
// calls it where it would have resumed one, without a coroutine switch.
//
// Virtual.Run drives the clock on its caller's goroutine until no task can
// run. Only the clock's tasks touch it while Run runs; any caller may
// touch it between runs, and what it queues there runs in the next Run.
// One goroutine owns the clock at a time, so it takes no lock.
//
// The discipline required of clients is the one that makes discrete-event
// simulation sound: any goroutine that participates in simulated time must
// be started with Virtual.Go, and any blocking wait that can only be
// resolved by the progress of simulated time must go through a Cond
// obtained from Virtual.NewCond. State that only the tasks of one clock
// touch needs no lock: one task runs at a time, and it yields only where
// it blocks, so the code between two blocking calls is a critical section
// already. A task that blocks on a raw channel, a sync.WaitGroup, or a
// mutex another task holds across a simulated wait keeps the one running
// slot from the task that would release it, and the run stops.
package simclock

import "time"

// Cond is a clock-aware condition variable. It mirrors sync.Cond with an
// additional timed wait. Signal and Broadcast only make waiters ready:
// they resume, in wait order, once the caller blocks. Cond stays an
// interface, unlike the clock, because a test substitutes a wake-counting
// fake for a flush pool's cond.
type Cond interface {
	// Wait atomically unlocks the underlying locker, if any, and suspends
	// the task until Signal or Broadcast wakes it. The locker is
	// re-acquired before Wait returns. As with sync.Cond, callers must re-check their
	// condition in a loop.
	Wait()
	// WaitFor means exactly `for !pred() { Wait() }`: the same wake order,
	// the same timestamps. It differs only in who runs the re-check. A
	// woken WaitFor waiter keeps its place in the ready queue, and when it
	// reaches the head the clock evaluates pred (under the locker, if
	// any). While
	// pred is false the task goes back to the tail of the cond's waiters
	// without running, so it costs no coroutine switch and no EventCount.
	// pred reads only state the cond's waiters share, has no side effects,
	// and calls no cachebuf.Buffer method: it runs on the clock's driver,
	// not in the task. Build it once, not per wait. The caller holds the
	// locker, if any.
	WaitFor(pred func() bool)
	// WaitTimeout behaves like Wait but gives up after d of simulated
	// time. It reports true if the wait timed out (as opposed to being
	// woken by Signal/Broadcast).
	WaitTimeout(d time.Duration) bool
	// Signal wakes one waiter, if any.
	Signal()
	// Broadcast wakes all waiters.
	Broadcast()
}

// A WaitGroup is a clock-aware analogue of sync.WaitGroup: Wait suspends
// the calling task in simulated time. Only the tasks of its clock use it.
type WaitGroup struct {
	cond  Cond
	count int
}

// NewWaitGroup returns a WaitGroup bound to clk.
func NewWaitGroup(clk *Virtual) *WaitGroup {
	return &WaitGroup{cond: clk.NewCond(nil)}
}

// Add adds delta (which may be negative) to the counter. The counter must
// never go negative.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("simclock: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	for wg.count != 0 {
		wg.cond.Wait()
	}
}

// A Barrier is a reusable synchronization point for a fixed number of
// parties, used by the tightly-coupled execution mode of the benchmarks.
// Only the tasks of its clock use it.
type Barrier struct {
	cond    Cond
	parties int
	arrived int
	phase   uint64
}

// NewBarrier returns a barrier for the given number of parties (>= 1).
func NewBarrier(clk *Virtual, parties int) *Barrier {
	if parties < 1 {
		panic("simclock: barrier needs at least one party")
	}
	return &Barrier{cond: clk.NewCond(nil), parties: parties}
}

// Await blocks until all parties have called Await for the current phase,
// then releases them all and resets for the next phase.
func (b *Barrier) Await() {
	phase := b.phase
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for b.phase == phase {
		b.cond.Wait()
	}
}
