//go:build go1.23

package simclock

import (
	"bytes"
	"fmt"
	"iter"
	"regexp"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// eventCount tallies task wakeups (timer fires, signals, broadcast wakes)
// across every Virtual clock in the process.
var eventCount atomic.Uint64

// EventCount returns the process-wide number of discrete-event wakeups
// performed by all Virtual clocks so far.
func EventCount() uint64 { return eventCount.Load() }

// Virtual is a deterministic discrete-event clock. Every task is a
// coroutine and exactly one runs at a time: a driver resumes the head of a
// FIFO ready queue and gets control back when that task blocks (Sleep, a
// Cond wait) or returns. Go, Signal, Broadcast and timer expiry append to
// the queue in the order they happen; simulated time stands still while
// the queue is non-empty and jumps to the next pending timer when it is
// empty, so equal inputs give equal schedules (DESIGN.md §14).
//
// A Virtual clock detects true deadlock: if every task is blocked in a
// Cond wait with no pending timer, no event can ever wake the simulation,
// and the clock panics with a diagnostic rather than hanging.
type Virtual struct {
	mu  sync.Mutex // guards everything below; tasks never contend, callers outside any task may
	now time.Duration
	// nowAtomic mirrors now for lock-free reads. Time only advances while
	// every task is blocked, so no task can observe it mid-change: Now()
	// from a running task is exact without the mutex.
	nowAtomic   atomic.Int64
	ready       []*waiter // FIFO from readyHead: tasks that run before time moves
	readyHead   int
	cur         *waiter   // the task the driver resumed last
	idle        []*waiter // finished coroutines, reused by Go, stopped at quiescence
	driving     bool      // a driver goroutine exists
	condWaiters int       // tasks suspended in a Cond wait
	timers      timerQueue
	seq         uint64 // tie-break for deterministic wake order; doubles as waiter generation
	dead        bool   // deadlock reported; it is reported once
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

// waiter is one task: its coroutine and the record of its current suspension.
// It may be woken by a timer (timeout/sleep) or by a Cond signal, whichever
// comes first; fired guards double wake, and seq (reassigned on every
// suspension) identifies the one that stale timer and cond entries belong to.
type waiter struct {
	next     func() (struct{}, bool) // resume; only the driver calls it
	stop     func()
	yield    func(struct{}) bool // give the baton back; only the task itself calls it
	fn       func()
	seq      uint64
	fired    bool
	inCond   bool   // counted in condWaiters
	timed    bool   // has a filed timer (markStale bookkeeping on signal)
	timedOut bool   // woken by the timer
	deadlock string // set when resumed to report a deadlock
}

// suspendLocked files the running task as blocked and returns it; the
// caller unlocks and yields. Only a task may block.
func (c *Virtual) suspendLocked(inCond, timed bool) *waiter {
	w := c.cur
	w.seq = c.seq
	c.seq++
	w.fired, w.timedOut, w.inCond, w.timed = false, false, inCond, timed
	return w
}

// readyLocked queues t; a caller that is not a task may have to start the driver.
func (c *Virtual) readyLocked(t *waiter) {
	c.ready = append(c.ready, t)
	if !c.driving {
		c.driving = true
		c.startDriver()
	}
}

func (c *Virtual) startDriver() { go c.drive() }

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
	c.mu.Lock()
	w := c.suspendLocked(false, true)
	c.timers.push(w, c.now+d, w.seq)
	c.mu.Unlock()
	w.yield(struct{}{})
}

// Go starts fn as a clock-managed task, behind every task readied before it.
func (c *Virtual) Go(fn func()) {
	c.mu.Lock()
	var t *waiter
	if n := len(c.idle); n > 0 {
		t, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		t = &waiter{}
		t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
			t.yield = yield
			for ok := true; ok; ok = yield(struct{}{}) {
				t.run()
				c.mu.Lock()
				c.idle = append(c.idle, t)
				c.mu.Unlock()
			}
		})
	}
	t.fn = fn
	c.readyLocked(t)
	c.mu.Unlock()
}

// run executes the task's function. iter.Pull re-raises its panic or
// runtime.Goexit (t.Fatal) in the driver: the driver's stack says nothing
// about the task, so the task's own travels in the panic value.
func (t *waiter) run() {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("%v\n\ntask stack:\n%s", r, debug.Stack()))
		}
	}()
	fn := t.fn
	t.fn = nil
	fn()
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

// drive is the scheduler: it resumes one task at a time until the clock
// quiesces (nothing ready, no timer), then stops the idle coroutines and
// exits, so a finished simulation leaves no goroutine behind.
func (c *Virtual) drive() {
	quiesced := false
	defer func() {
		if !quiesced { // unwound by a task's runtime.Goexit (or by its panic, which ends the process)
			c.startDriver()
		}
	}()
	c.mu.Lock()
	for c.cur = c.nextLocked(); c.cur != nil; c.cur = c.nextLocked() {
		c.mu.Unlock()
		c.cur.next()
		c.mu.Lock()
	}
	c.driving = false
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	quiesced = true
	for _, t := range idle {
		t.stop()
	}
}

// nextLocked picks the task to resume: the ready head, else the one task
// the earliest timer wakes (same-deadline timers one at a time, in
// registration order), else nil: quiescence. In a deadlock the task whose
// wait completed it is resumed to panic there, so its recover() works.
func (c *Virtual) nextLocked() *waiter {
	if c.readyHead < len(c.ready) {
		c.readyHead++
		return c.ready[c.readyHead-1]
	}
	c.ready, c.readyHead = c.ready[:0], 0
	if w, deadline, ok := c.timers.pop(); ok {
		if deadline > c.now {
			c.now = deadline
			c.nowAtomic.Store(int64(deadline))
		}
		w.fired, w.timedOut = true, true
		if w.inCond {
			c.condWaiters--
		}
		eventCount.Add(1)
		return w
	}
	if c.condWaiters == 0 || c.dead {
		return nil // clean quiescence, or the tasks a reported deadlock left parked
	}
	c.dead = true
	msg := fmt.Sprintf(
		"simclock: deadlock: %d task(s) blocked in Cond waits with no pending timers at t=%v%s",
		c.condWaiters, c.now, waitSites())
	if !c.cur.inCond || c.cur.fired { // the task resumed last completed the deadlock by returning
		c.mu.Unlock()
		panic(msg)
	}
	c.cur.fired, c.cur.deadlock = true, msg
	c.condWaiters--
	return c.cur
}

// profFrame matches one "#  pc  func+off  dir/file:line" line of a debug=1 goroutine profile.
var profFrame = regexp.MustCompile(`(?m)^#\s+\S+\s+(\S+)\+0x\S+\s+.*/(\S+)$`)

// waitSites renders one line per distinct place tasks are parked in a Cond
// wait: count × the innermost two frames outside this package. A parked
// task is a coroutine whose stack ends in (*vcond).wait, so the goroutine
// profile has them grouped already and the wait path records nothing. It
// is process-wide: tasks other clocks have parked at the time show too.
func waitSites() string {
	var prof bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&prof, 1)
	_, records, _ := strings.Cut(prof.String(), "\n") // the "goroutine profile: total N" line
	counts := map[string]int{}
	for _, rec := range strings.Split(records, "\n\n") { // "N @ pcs…", then the frames
		_, stack, parked := strings.Cut(rec, "simclock.(*vcond).wait+")
		if !parked {
			continue
		}
		var n int
		fmt.Sscan(rec, &n)
		stack, _, _ = strings.Cut(stack, "simclock.(*waiter).run+") // what is left is the task's own frames
		var site []string
		for _, m := range profFrame.FindAllStringSubmatch(stack, -1) {
			if len(site) < 2 && !strings.Contains(m[1], "simclock.(*") { // Wait, WaitGroup.Wait, Barrier.Await
				site = append(site, m[1]+" "+m[2])
			}
		}
		counts[strings.Join(site, " < ")] += n
	}
	var lines []string
	for site, n := range counts {
		lines = append(lines, fmt.Sprintf("\n%6d × %s", n, site))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// vcond is the Virtual implementation of Cond.
type vcond struct {
	clk     *Virtual
	l       sync.Locker
	waiters []condEntry // FIFO from head; entries may be stale
	head    int
}

// condEntry pins the incarnation of a queued waiter, exactly as
// timerEntry does for timers: a task that timed out and waits again
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
	c.mu.Lock()
	w := c.suspendLocked(true, d >= 0)
	if cd.head > 0 && cd.head == len(cd.waiters) {
		cd.waiters, cd.head = cd.waiters[:0], 0
	}
	cd.waiters = append(cd.waiters, condEntry{w, w.seq})
	if d >= 0 {
		c.timers.push(w, c.now+d, w.seq)
	}
	c.condWaiters++
	cd.l.Unlock()
	c.mu.Unlock()
	w.yield(struct{}{})
	cd.l.Lock()
	if msg := w.deadlock; msg != "" {
		w.deadlock = ""
		panic(msg) // with cd.l held, so the caller's deferred Unlock works
	}
	return w.timedOut
}

// wake readies the first live waiter, or all of them, in wait order. A
// woken waiter's pending timer (if any) is now stale: the store counts it.
func (cd *vcond) wake(all bool) {
	c := cd.clk
	c.mu.Lock()
	for cd.head < len(cd.waiters) {
		e := cd.waiters[cd.head]
		cd.waiters[cd.head] = condEntry{}
		cd.head++
		if !e.live() {
			continue // already timed out, or waiting again elsewhere
		}
		e.w.fired = true
		if e.w.timed {
			c.timers.markStale()
		}
		c.condWaiters--
		eventCount.Add(1)
		c.readyLocked(e.w)
		if !all {
			break
		}
	}
	c.mu.Unlock()
}

func (cd *vcond) Signal()    { cd.wake(false) }
func (cd *vcond) Broadcast() { cd.wake(true) }
