// Package simclock provides the time substrate for the Score runtime and
// its hardware simulators.
//
// Every component that sleeps, waits, or measures time does so through the
// Clock interface, implemented by Virtual: a deterministic discrete-event
// clock. Exactly one task runs at a time, in the order tasks became ready,
// and simulated time advances instantly to the next pending timer whenever
// every task is blocked. A full paper-scale experiment (hundreds of
// gigabytes of simulated transfers) completes in milliseconds of wall time.
//
// The discipline required of clients is the one that makes discrete-event
// simulation sound: any goroutine that participates in simulated time must
// be started with Clock.Go, and any blocking wait that can only be resolved
// by the progress of simulated time must go through a Cond obtained from
// Clock.NewCond. Plain mutexes may still be used for short critical
// sections that never block across simulated time; since one task runs at
// a time they are never contended. A task that blocks on a raw channel, a
// sync.WaitGroup, or a mutex another task holds across a simulated wait
// keeps the one running slot from the task that would release it, and the
// run stops.
package simclock

import (
	"sync"
	"time"
)

// Clock abstracts the flow of time for the simulation.
//
// Now reports the current simulated time as an offset from the start of the
// simulation. Sleep blocks the calling task for the given simulated
// duration. Go starts fn as a task whose blocking is accounted for by the
// clock; the returned function must not be retained after fn returns.
type Clock interface {
	// Now returns the current simulated time.
	Now() time.Duration
	// Sleep blocks the calling task for d of simulated time.
	// Non-positive durations yield without advancing time.
	Sleep(d time.Duration)
	// Go starts fn as a clock-managed task. On a Virtual clock fn does not
	// run alongside its parent: it starts when the parent first blocks or
	// returns, after the tasks made ready before it.
	Go(fn func())
	// NewCond returns a condition variable bound to locker l whose Wait
	// correctly suspends the calling task in simulated time.
	NewCond(l sync.Locker) Cond
}

// Cond is a clock-aware condition variable. It mirrors sync.Cond with an
// additional timed wait. On a Virtual clock Signal and Broadcast only make
// waiters ready: they resume, in wait order, once the caller blocks.
type Cond interface {
	// Wait atomically unlocks the underlying locker and suspends the task
	// until Signal or Broadcast wakes it. The locker is re-acquired before
	// Wait returns. As with sync.Cond, callers must re-check their
	// condition in a loop.
	Wait()
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
// the calling task in simulated time.
type WaitGroup struct {
	mu    sync.Mutex
	cond  Cond
	count int
}

// NewWaitGroup returns a WaitGroup bound to clk.
func NewWaitGroup(clk Clock) *WaitGroup {
	wg := &WaitGroup{}
	wg.cond = clk.NewCond(&wg.mu)
	return wg
}

// Add adds delta (which may be negative) to the counter. The counter must
// never go negative.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	defer wg.mu.Unlock()
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
	wg.mu.Lock()
	defer wg.mu.Unlock()
	for wg.count != 0 {
		wg.cond.Wait()
	}
}

// A Barrier is a reusable synchronization point for a fixed number of
// parties, used by the tightly-coupled execution mode of the benchmarks.
type Barrier struct {
	mu      sync.Mutex
	cond    Cond
	parties int
	arrived int
	phase   uint64
}

// NewBarrier returns a barrier for the given number of parties (>= 1).
func NewBarrier(clk Clock, parties int) *Barrier {
	if parties < 1 {
		panic("simclock: barrier needs at least one party")
	}
	b := &Barrier{parties: parties}
	b.cond = clk.NewCond(&b.mu)
	return b
}

// Await blocks until all parties have called Await for the current phase,
// then releases them all and resets for the next phase.
func (b *Barrier) Await() {
	b.mu.Lock()
	defer b.mu.Unlock()
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

// Parties returns the number of parties the barrier was created with.
func (b *Barrier) Parties() int { return b.parties }
