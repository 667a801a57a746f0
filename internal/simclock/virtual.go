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

// eventCount tallies resumptions of parked tasks across every Virtual clock
// in the process.
var eventCount atomic.Uint64

// EventCount returns the process-wide number of times a Virtual clock has
// resumed a parked task: one per Sleep or WaitTimeout that expired and per
// Signal or Broadcast wake that ran. Starting a task with Go is not counted,
// nor is a WaitFor waiter the driver filed again because its predicate was
// still false, since that task never ran, nor is an Event the driver ran:
// an event is a call on the driver, not a coroutine switch.
func EventCount() uint64 { return eventCount.Load() }

// livelockBound is how many resumptions, re-checks and event runs one
// virtual instant may take before the driver reports a livelock: tasks
// waking each other forever without letting time advance.
const livelockBound = 1 << 24

// Virtual is a deterministic discrete-event clock. Every task is a
// coroutine and exactly one runs at a time: a driver resumes the head of a
// FIFO ready queue and gets control back when that task blocks (Sleep, a
// Cond wait) or returns. Go, Signal, Broadcast and timer expiry append to
// the queue in the order they happen; simulated time stands still while
// the queue is non-empty and jumps to the next pending timer when it is
// empty, so equal inputs give equal schedules (DESIGN.md §14). When the
// head is a WaitFor waiter, the driver checks its predicate first and files
// it back on its cond, unresumed, while the predicate is false. When the
// head is an Event, the driver calls its Run in that slot and resumes no
// task.
//
// A Virtual clock detects true deadlock: if every task is blocked in a
// Cond wait or an Event's Await with no pending timer, nothing can ever
// wake the simulation,
// and the clock panics with a diagnostic rather than hanging. It also
// reports a livelock: livelockBound resumptions, re-checks and event runs
// at one instant without time advancing.
type Virtual struct {
	mu  sync.Mutex // guards everything below; tasks never contend, callers outside any task may
	now time.Duration
	// nowAtomic mirrors now for lock-free reads. Time only advances while
	// every task is blocked, so no task can observe it mid-change: Now()
	// from a running task is exact without the mutex.
	nowAtomic   atomic.Int64
	ready       []*waiter // FIFO from readyHead: tasks and events that run before time moves
	readyHead   int
	cur         *task   // the task the driver resumed last
	idle        []*task // finished coroutines, reused by Go, stopped at quiescence
	driving     bool    // a driver goroutine exists
	inEvent     bool    // the driver is inside an Event's Run
	handoff     *task   // the task that Event's Run resumed, to run next in its slot
	condWaiters int     // tasks suspended in a Cond wait or an Event's Await
	armed       int     // events parked: armed and neither fired nor signaled
	timers      timerQueue
	seq         uint64 // tie-break for deterministic wake order; doubles as waiter generation
	dead        bool   // deadlock reported; it is reported once
	abortTask   *task  // resumed only to panic with abortMsg: a deadlock or livelock report
	abortMsg    string
	spins       int // resumptions, WaitFor re-checks and event runs since time last advanced
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

// waiter is what the ready queue, the timer store and a cond's wait list
// file: the record of one suspension, of a task or of an Event. It may be
// woken by a timer (timeout/sleep) or by a signal, whichever comes first;
// fired guards double wake, and seq (reassigned on every suspension and
// every Event.Retime) identifies the one that stale timer and cond entries
// belong to.
type waiter struct {
	seq      uint64
	fired    bool
	inCond   bool   // a task counted in condWaiters
	timed    bool   // has a filed timer (markStale bookkeeping on signal and retime)
	timedOut bool   // woken by the timer
	event    bool   // an Event's record, counted in armed while parked
	run      Runner // called when this record leaves the ready queue: the task (*task) or the event's callback
}

// task is one coroutine and, embedded, the record of its current suspension.
type task struct {
	waiter
	next  func() (struct{}, bool) // resume; only the driver calls it
	stop  func()
	yield func(struct{}) bool // give the baton back; only the task itself calls it
	fn    func()
	pred  func() bool // a WaitFor waiter's predicate, which the driver re-checks before resuming it
	on    *vcond      // the cond a WaitFor waiter is parked on
}

// Run resumes the task until it blocks or returns; only the driver calls it.
func (t *task) Run() { t.next() }

// suspendLocked files the running task as blocked and returns it; the
// caller unlocks and yields. Only a task may block.
func (c *Virtual) suspendLocked(inCond, timed bool) *task {
	if c.inEvent {
		c.mu.Unlock()
		panic("simclock: an Event's Run blocked; only a task may Sleep or Wait")
	}
	t := c.cur
	t.seq = c.seq
	c.seq++
	t.fired, t.timedOut, t.inCond, t.timed = false, false, inCond, timed
	return t
}

// wakeLocked readies w, a parked record a signal reached first: its timer,
// if it has one, goes stale.
func (c *Virtual) wakeLocked(w *waiter) {
	if w.timed {
		c.timers.markStale()
	}
	c.unparkLocked(w)
	c.readyLocked(w)
}

// retimeLocked re-files the timer of w, a parked record, under a fresh
// seq, d from now, or drops it when d < 0: the bookkeeping a wake followed
// by a re-wait would do, with nothing readied and nothing counted.
func (c *Virtual) retimeLocked(w *waiter, d time.Duration) {
	if w.timed {
		c.timers.markStale()
	}
	w.seq = c.seq
	c.seq++
	w.timed = d >= 0
	if w.timed {
		c.timers.push(w, c.now+d, w.seq)
	}
}

// unparkLocked marks w woken, by its timer or a signal, and takes it off
// the parked counts.
func (c *Virtual) unparkLocked(w *waiter) {
	w.fired = true
	if w.event {
		c.armed--
	} else if w.inCond {
		c.condWaiters--
	}
}

// readyLocked queues w; a caller that is not a task may have to start the driver.
func (c *Virtual) readyLocked(w *waiter) {
	c.ready = append(c.ready, w)
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
	t := c.suspendLocked(false, true)
	c.timers.push(&t.waiter, c.now+d, t.seq)
	c.mu.Unlock()
	t.yield(struct{}{})
}

// Go starts fn as a clock-managed task, behind every task readied before it.
func (c *Virtual) Go(fn func()) {
	c.mu.Lock()
	var t *task
	if n := len(c.idle); n > 0 {
		t, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		t = &task{}
		t.run = t
		t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
			t.yield = yield
			for ok := true; ok; ok = yield(struct{}{}) {
				t.execute()
				c.mu.Lock()
				c.idle = append(c.idle, t)
				c.mu.Unlock()
			}
		})
	}
	t.fn = fn
	c.readyLocked(&t.waiter)
	c.mu.Unlock()
}

// execute runs the task's function. iter.Pull re-raises its panic or
// runtime.Goexit (t.Fatal) in the driver: the driver's stack says nothing
// about the task, so the task's own travels in the panic value.
func (t *task) execute() {
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

// drive is the scheduler: it resumes one task, or runs one event, at a
// time until the clock quiesces (nothing ready, no timer), then stops the
// idle coroutines and exits, so a finished simulation leaves no goroutine
// behind.
func (c *Virtual) drive() {
	quiesced := false
	defer func() {
		if !quiesced { // unwound by a task's runtime.Goexit (or by its panic, which ends the process)
			c.startDriver()
		}
	}()
	c.mu.Lock()
	for w := c.nextLocked(); w != nil; w = c.nextLocked() {
		if !w.event {
			c.cur = w.run.(*task)
		} else if c.runEventLocked(w); c.handoff != nil {
			c.cur, c.handoff = c.handoff, nil // the event resumed its parked task in its slot
		} else {
			continue
		}
		if !c.admitLocked(c.cur) {
			continue
		}
		c.mu.Unlock()
		c.cur.Run()
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

// nextLocked picks the task to resume or the event to run: the ready head,
// else the one the earliest timer wakes (same-deadline timers one at a
// time, in registration order), else nil: quiescence. In a deadlock the
// task whose wait completed it is resumed to panic there, so its recover()
// works.
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
			c.spins = 0
		}
		w.timedOut = true
		c.unparkLocked(w)
		return w
	}
	if c.condWaiters == 0 || c.dead {
		return nil // clean quiescence, or the tasks a reported deadlock left parked
	}
	c.dead = true
	msg := fmt.Sprintf(
		"simclock: deadlock: %d task(s) blocked in Cond or Event waits and %d event(s) armed with no pending timers at t=%v%s",
		c.condWaiters, c.armed, c.now, waitSites())
	if c.cur == nil || !c.cur.inCond || c.cur.fired { // the task resumed last completed the deadlock by returning
		c.mu.Unlock()
		panic(msg)
	}
	c.abortTask, c.abortMsg = c.cur, msg
	c.unparkLocked(&c.cur.waiter)
	return &c.cur.waiter
}

// admitLocked decides whether the driver resumes w, the task it just
// popped, and counts the resumption. A WaitFor waiter whose predicate is
// still false is filed again instead (recheckLocked). Every resumption and
// re-file counts toward livelockBound; past it, the next Cond waiter popped
// is resumed only to panic with the wait-site table, and the count starts
// over.
func (c *Virtual) admitLocked(w *task) bool {
	if c.abortTask != w { // else a deadlock report
		c.spins++
		parked := w.fn == nil // not a task Go has just started
		switch {
		case c.spins > livelockBound && parked && w.inCond:
			c.abortTask = w
			c.abortMsg = fmt.Sprintf(
				"simclock: livelock: %d resumptions and re-checks at t=%v without time advancing%s",
				c.spins, c.now, waitSites())
			c.spins = 0
		case w.pred != nil && !c.recheckLocked(w):
			return false
		case parked:
			eventCount.Add(1)
		}
	}
	// Only a parked WaitFor waiter needs these; an idle coroutine holding
	// them would keep its last cond's owner reachable.
	w.pred, w.on = nil, nil
	return true
}

// recheckLocked evaluates the predicate of w, a WaitFor waiter the driver
// popped, under its cond's locker; the lock order is locker before clock,
// as in wait. When the predicate is false, w is filed at the cond's tail
// exactly as the next Wait of a `for !pred() { Wait() }` loop would file
// it, and is not resumed. w is c.cur, so a deadlock this completes is
// reported inside w.
func (c *Virtual) recheckLocked(w *task) bool {
	cd := w.on
	c.mu.Unlock()
	cd.l.Lock()
	ok := w.pred()
	c.mu.Lock()
	if !ok {
		cd.fileLocked(-1, w.pred)
	}
	cd.l.Unlock()
	return ok
}

// profFrame matches one "#  pc  func+off  dir/file:line" line of a debug=1 goroutine profile.
var profFrame = regexp.MustCompile(`(?m)^#\s+\S+\s+(\S+)\+0x\S+\s+.*/(\S+)$`)

// waitSites renders one line per distinct place tasks are parked in a Cond
// wait or an Event's Await: count × the innermost two frames outside this
// package. A parked task is a coroutine whose stack ends in (*vcond).wait
// or (*Event).Await, so the goroutine
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
			_, stack, parked = strings.Cut(rec, "simclock.(*Event).Await+")
		}
		if !parked {
			continue
		}
		var n int
		fmt.Sscan(rec, &n)
		stack, _, _ = strings.Cut(stack, "simclock.(*task).execute+") // what is left is the task's own frames
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

// condEntry pins the incarnation of a queued waiter, a task or an ArmOn
// event, exactly as timerEntry does for timers: a task that timed out and
// waits again leaves its cond entry behind, detectable by the seq mismatch.
type condEntry struct {
	w   *waiter
	seq uint64
}

func (e condEntry) live() bool { return e.w.seq == e.seq && !e.w.fired }

func (cd *vcond) Wait() { cd.wait(-1, nil) }

func (cd *vcond) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	return cd.wait(d, nil)
}

// WaitFor parks through wait, so a deadlock among WaitFor waiters is
// reported inside one of them and waitSites finds their stacks. The driver
// resumes the task only once pred holds; the loop re-checks anyway, for a
// caller outside any task that changed the state in between.
func (cd *vcond) WaitFor(pred func() bool) {
	for !pred() {
		cd.wait(-1, pred)
	}
}

// wait suspends the task; d < 0 means no timeout, and a non-nil pred makes
// it a WaitFor wait. Returns true on timeout. Precondition: caller holds cd.l.
func (cd *vcond) wait(d time.Duration, pred func() bool) bool {
	c := cd.clk
	c.mu.Lock()
	w := cd.fileLocked(d, pred)
	cd.l.Unlock()
	c.mu.Unlock()
	w.yield(struct{}{})
	cd.l.Lock()
	if c.abortTask == w {
		msg := c.abortMsg
		c.abortTask, c.abortMsg = nil, ""
		panic(msg) // with cd.l held, so the caller's deferred Unlock works
	}
	return w.timedOut
}

// fileLocked suspends the running task on cd and returns it. Caller holds
// cd.l and the clock mutex.
func (cd *vcond) fileLocked(d time.Duration, pred func() bool) *task {
	c := cd.clk
	w := c.suspendLocked(true, d >= 0)
	if pred != nil {
		w.pred, w.on = pred, cd
	}
	cd.appendLocked(&w.waiter)
	if d >= 0 {
		c.timers.push(&w.waiter, c.now+d, w.seq)
	}
	c.condWaiters++
	return w
}

// appendLocked files w, already suspended under its current seq, at the
// tail of cd's waiters.
func (cd *vcond) appendLocked(w *waiter) {
	cd.dropDeadLocked()
	cd.waiters = append(cd.waiters, condEntry{w, w.seq})
}

// wake readies the first live waiter, or all of them, in wait order. A
// woken waiter's pending timer (if any) is now stale: the store counts it.
// A WaitFor waiter is readied like any other; the driver re-checks its
// predicate when it reaches the head of the ready queue. An event is
// readied in its place too, and runs there.
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
		c.wakeLocked(e.w)
		if !all {
			break
		}
	}
	c.mu.Unlock()
}

func (cd *vcond) Signal()    { cd.wake(false) }
func (cd *vcond) Broadcast() { cd.wake(true) }

// dropDeadLocked discards the entries at the head of the queue that can
// no longer be woken (timed out, or waiting again): only wake consumes
// entries, so a cond whose waiters time out instead would otherwise grow
// by one entry per wait. Caller holds the clock mutex.
func (cd *vcond) dropDeadLocked() {
	for cd.head < len(cd.waiters) && !cd.waiters[cd.head].live() {
		cd.waiters[cd.head] = condEntry{}
		cd.head++
	}
	if cd.head == len(cd.waiters) {
		cd.waiters, cd.head = cd.waiters[:0], 0
	}
}
