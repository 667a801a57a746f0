package simclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// eventCount tallies task wakeups (timer fires, signals, broadcast wakes)
// across every Virtual clock in the process. The simulator-speed
// benchmarks difference it to report events/sec; one uncontended atomic
// add per wakeup is noise next to the channel handoff that follows it.
var eventCount atomic.Uint64

// EventCount returns the process-wide number of discrete-event wakeups
// performed by all Virtual clocks so far.
func EventCount() uint64 { return eventCount.Load() }

// Virtual is a deterministic discrete-event clock. Simulated time stands
// still while any registered task is runnable and jumps to the next pending
// timer when every task is blocked (in Sleep or in a Cond wait).
//
// A Virtual clock detects true deadlock: if every task is blocked in a
// Cond wait with no pending timer, no event can ever wake the simulation,
// and the clock panics with a diagnostic rather than hanging.
type Virtual struct {
	mu  sync.Mutex
	now time.Duration
	// nowAtomic mirrors now for lock-free reads. Time only advances while
	// every task is blocked, so no task can observe it mid-change: Now()
	// from a running task is exact without the mutex.
	nowAtomic   atomic.Int64
	runnable    int // tasks currently executing (or woken and about to run)
	condWaiters int // tasks suspended in a Cond wait
	timers      timerQueue
	seq         uint64 // tie-break for deterministic wake order; doubles as waiter generation
	dead        bool   // deadlock detected; clock no longer advances

	// wpool recycles waiter records (and their wake channels) so Sleep and
	// Cond waits are allocation-free in steady state. It is per-clock on
	// purpose: a recycled waiter may still be referenced by stale timer or
	// cond entries from a previous incarnation, whose liveness checks read
	// its seq/fired fields under THIS clock's mutex — all waiter field
	// mutation happens under the same mutex, so those stale readers never
	// race (DESIGN.md §14 has the ownership rules). A process-wide pool
	// would let a waiter migrate to a clock with a different mutex.
	wpool sync.Pool
}

func (c *Virtual) getWaiter() *waiter {
	if w, _ := c.wpool.Get().(*waiter); w != nil {
		return w
	}
	return &waiter{ch: make(chan bool, 1)}
}

// A VirtualOption configures a Virtual clock at construction.
type VirtualOption func(*Virtual)

// WithHeapTimers selects the original binary-heap timer store instead of
// the timer wheel. It exists for differential determinism tests and A/B
// benchmarks; behavior is identical, only the data structure differs.
func WithHeapTimers() VirtualOption {
	return func(c *Virtual) { c.timers = newTimerHeapQ() }
}

// NewVirtual returns a virtual clock positioned at time zero with no
// registered tasks.
func NewVirtual(opts ...VirtualOption) *Virtual {
	c := &Virtual{}
	for _, o := range opts {
		o(c)
	}
	if c.timers == nil {
		c.timers = newTimerWheel()
	}
	return c
}

// waiter is a suspended task. It may be woken by a timer (timeout/sleep)
// or by a Cond signal, whichever comes first; fired guards double wake,
// and seq (reassigned on every acquisition) identifies the incarnation
// that stale queue entries were filed against.
type waiter struct {
	ch     chan bool // receives true when woken by timer expiry
	seq    uint64
	fired  bool
	inCond bool // counted in condWaiters
	timed  bool // has a filed timer (markStale bookkeeping on signal)
}

// acquireWaiterLocked readies w for a new suspension. Must be called with
// c.mu held: stale queue entries for w's previous incarnation may be
// examined concurrently under the same mutex.
func (c *Virtual) acquireWaiterLocked(w *waiter, inCond, timed bool) {
	w.seq = c.seq
	c.seq++
	w.fired = false
	w.inCond = inCond
	w.timed = timed
}

// Now returns the current simulated time.
func (c *Virtual) Now() time.Duration {
	return time.Duration(c.nowAtomic.Load())
}

// Sleep suspends the calling task for d of simulated time. The calling
// task must have been started via Go (or be inside Run).
func (c *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := c.getWaiter()
	c.mu.Lock()
	c.acquireWaiterLocked(w, false, true)
	c.timers.push(w, c.now+d, w.seq)
	c.runnable--
	c.advanceAndMaybePanicLocked()
	<-w.ch
	c.wpool.Put(w)
}

// Go starts fn as a clock-managed task.
func (c *Virtual) Go(fn func()) {
	c.mu.Lock()
	c.runnable++
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			c.runnable--
			c.advanceAndMaybePanicLocked()
		}()
		fn()
	}()
}

// Run registers fn as the root task, executes it, and returns when it
// completes. It is the usual entry point for a simulation:
//
//	clk := simclock.NewVirtual()
//	clk.Run(func() { ... all simulated work ... })
func (c *Virtual) Run(fn func()) {
	done := make(chan struct{})
	c.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

// NewCond returns a virtual-time condition variable bound to l.
func (c *Virtual) NewCond(l sync.Locker) Cond { return &vcond{clk: c, l: l} }

// advanceAndMaybePanicLocked advances time if possible and UNLOCKS c.mu.
// If advancing is impossible because every task is parked in a Cond wait
// with no pending timer — a true deadlock — it panics after releasing the
// lock, so a recover() in the caller leaves the clock unlocked (though
// permanently dead).
func (c *Virtual) advanceAndMaybePanicLocked() {
	woken, deadlocked := c.maybeAdvanceLocked()
	waiters, now := c.condWaiters, c.now
	c.mu.Unlock()
	// Deliver the wake outside the mutex: the woken task's first clock
	// call would otherwise contend with the lock we still hold. The fired
	// flag was set under the mutex, so no competing waker exists.
	if woken != nil {
		woken.ch <- true
	}
	if deadlocked {
		panic(fmt.Sprintf(
			"simclock: deadlock: %d task(s) blocked in Cond waits with no pending timers at t=%v",
			waiters, now))
	}
}

// maybeAdvanceLocked advances simulated time to the next timer deadline if
// no task is runnable, and returns the one task that deadline wakes (nil
// when time did not advance) for the caller to deliver once the mutex is
// released. It also reports whether a deadlock was detected (first
// detection only). Must be called with c.mu held.
func (c *Virtual) maybeAdvanceLocked() (woken *waiter, deadlocked bool) {
	if c.runnable > 0 || c.dead {
		return nil, false
	}
	w, deadline, ok := c.timers.pop()
	if !ok {
		if c.condWaiters > 0 {
			c.dead = true
			return nil, true
		}
		return nil, false // clean quiescence: every task has exited
	}
	if deadline > c.now {
		c.now = deadline
		c.nowAtomic.Store(int64(deadline))
	}
	// Wake exactly one timer per advance: same-deadline waiters resume
	// one at a time in registration order, each running to its next
	// blocking point before the next wakes. Waking them all at once
	// would hand several runnable goroutines to the real scheduler,
	// whose interleaving is not reproducible.
	w.fired = true
	if w.inCond {
		c.condWaiters--
	}
	c.runnable++
	eventCount.Add(1)
	return w, false
}

// vcond is the Virtual implementation of Cond.
type vcond struct {
	clk     *Virtual
	l       sync.Locker
	waiters []condEntry // FIFO from head; entries may be stale
	head    int
}

// condEntry pins the incarnation of a queued waiter, exactly as
// timerEntry does for timers: a pooled waiter recycled after a timeout
// leaves its cond entry behind, detectable by the seq mismatch.
type condEntry struct {
	w   *waiter
	seq uint64
}

func (e condEntry) live() bool { return e.w.seq == e.seq && !e.w.fired }

func (cd *vcond) Wait() { cd.wait(-1) }

func (cd *vcond) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	return cd.wait(d)
}

// wait suspends the task; d < 0 means no timeout. Returns true on timeout.
// Precondition: caller holds cd.l.
func (cd *vcond) wait(d time.Duration) bool {
	c := cd.clk
	w := c.getWaiter()
	c.mu.Lock()
	c.acquireWaiterLocked(w, true, d >= 0)
	cd.enqueue(condEntry{w, w.seq})
	if d >= 0 {
		c.timers.push(w, c.now+d, w.seq)
	}
	c.condWaiters++
	c.runnable--
	cd.l.Unlock()
	c.advanceAndMaybePanicLocked()
	timedOut := <-w.ch
	c.wpool.Put(w)
	cd.l.Lock()
	return timedOut
}

func (cd *vcond) enqueue(e condEntry) {
	if cd.head > 0 && cd.head == len(cd.waiters) {
		cd.waiters = cd.waiters[:0]
		cd.head = 0
	}
	cd.waiters = append(cd.waiters, e)
}

// wakeCondLocked fires a queued waiter: its pending timer (if any) is now
// stale, which the timer store tracks as a live-count decrement. The
// channel send happens after the clock mutex is released (fired, set here,
// already excludes competing wakers).
func (c *Virtual) wakeCondLocked(w *waiter) {
	w.fired = true
	if w.timed {
		c.timers.markStale()
	}
	c.condWaiters--
	c.runnable++
	eventCount.Add(1)
}

func (cd *vcond) Signal() {
	c := cd.clk
	var woken *waiter
	c.mu.Lock()
	for cd.head < len(cd.waiters) {
		e := cd.waiters[cd.head]
		cd.waiters[cd.head] = condEntry{}
		cd.head++
		if !e.live() {
			continue // already timed out or recycled
		}
		c.wakeCondLocked(e.w)
		woken = e.w
		break
	}
	c.mu.Unlock()
	if woken != nil {
		woken.ch <- false
	}
}

func (cd *vcond) Broadcast() {
	c := cd.clk
	var single *waiter
	var woken []*waiter
	c.mu.Lock()
	for cd.head < len(cd.waiters) {
		e := cd.waiters[cd.head]
		cd.waiters[cd.head] = condEntry{}
		cd.head++
		if !e.live() {
			continue
		}
		c.wakeCondLocked(e.w)
		if single == nil && woken == nil {
			single = e.w
		} else {
			if woken == nil {
				woken = append(woken, single)
				single = nil
			}
			woken = append(woken, e.w)
		}
	}
	cd.waiters = cd.waiters[:0]
	cd.head = 0
	c.mu.Unlock()
	if single != nil {
		single.ch <- false
	}
	for _, w := range woken {
		w.ch <- false
	}
}
