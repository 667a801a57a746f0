//go:build go1.23

package simclock

import (
	"bytes"
	"fmt"
	"iter"
	"os"
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
// coroutine and exactly one runs at a time: Run's caller is the driver,
// resuming the head of a FIFO ready queue and getting control back when
// that task blocks (Sleep, a Cond wait) or returns. Go, Signal, Broadcast
// and timer expiry append to the queue in the order they happen; simulated
// time stands still while the queue is non-empty and jumps to the next
// pending timer when it is empty, so equal inputs give equal schedules
// (DESIGN.md §14). When the head is a WaitFor waiter, the driver checks
// its predicate first and files it back on its cond, unresumed, while the
// predicate is false. When the head is an Event, the driver calls its Run
// in that slot and resumes no task.
//
// A Virtual clock detects true deadlock: if every task is blocked in a
// Cond wait or an Event's Await with no pending timer, nothing can ever
// wake the simulation, and the clock panics with a diagnostic rather than
// hanging. It also reports a livelock: livelockBound resumptions,
// re-checks and event runs at one instant without time advancing. Either
// report reaches stderr before the task it aborts unwinds.
//
// Only the clock's tasks touch it while Run runs, and any caller may touch
// it between runs: a Go, Signal or Broadcast made between runs is queued,
// and the next Run executes it in order. So one goroutine owns the clock
// at a time, and its state needs no lock. Nothing checks this at run
// time; go test -race does.
type Virtual struct {
	now         time.Duration
	ready       []*waiter // FIFO from readyHead: tasks and events that run before time moves
	readyHead   int
	cur         *task   // the task the driver resumed last
	idle        []*task // finished coroutines, reused by Go, stopped when Run returns
	inEvent     bool    // the driver is inside an Event's Run
	handoff     *task   // the task that Event's Run resumed, to run next in its slot
	condWaiters int     // tasks suspended in a Cond wait or an Event's Await
	armed       int     // events parked: armed and neither fired nor signaled
	timers      timerQueue
	seq         uint64 // tie-break for deterministic wake order; doubles as waiter generation
	dead        bool   // deadlock reported; it is reported once
	abortTask   *task  // resumed only to panic with abortMsg, a deadlock or livelock report already on stderr
	abortMsg    string
	spins       int      // resumptions, WaitFor re-checks and event runs since time last advanced
	spares      []*vcond // conds WaitLists gave back, empty, for the next WaitList that parks a task
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

// suspend files the running task as blocked and returns it; the caller
// yields. Only a task may block.
func (c *Virtual) suspend(inCond, timed bool) *task {
	if c.inEvent {
		panic("simclock: an Event's Run blocked; only a task may Sleep or Wait")
	}
	t := c.cur
	t.seq = c.seq
	c.seq++
	t.fired, t.timedOut, t.inCond, t.timed = false, false, inCond, timed
	return t
}

// wake readies w, a parked record a signal reached first: its timer, if
// it has one, goes stale.
func (c *Virtual) wake(w *waiter) {
	if w.timed {
		c.timers.markStale()
	}
	c.unpark(w)
	c.ready = append(c.ready, w)
}

// retime re-files the timer of w, a parked record, under a fresh
// seq, d from now, or drops it when d < 0: the bookkeeping a wake followed
// by a re-wait would do, with nothing readied and nothing counted.
func (c *Virtual) retime(w *waiter, d time.Duration) {
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

// unpark marks w woken, by its timer or a signal, and takes it off the
// parked counts.
func (c *Virtual) unpark(w *waiter) {
	w.fired = true
	if w.event {
		c.armed--
	} else if w.inCond {
		c.condWaiters--
	}
}

// Now returns the current simulated time.
func (c *Virtual) Now() time.Duration { return c.now }

// Sleep suspends the calling task for d of simulated time. The calling
// task must have been started via Go (or be inside Run).
func (c *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := c.suspend(false, true)
	c.timers.push(&t.waiter, c.now+d, t.seq)
	t.yield(struct{}{})
}

// Go starts fn as a clock-managed task, behind every task readied before
// it: fn does not run alongside its parent, it starts when the parent
// first blocks or returns. Called between runs, it queues fn for the next
// Run.
func (c *Virtual) Go(fn func()) {
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
				c.idle = append(c.idle, t)
			}
		})
	}
	t.fn = fn
	c.ready = append(c.ready, &t.waiter)
}

// execute runs the task's function. iter.Pull re-raises its panic or
// runtime.Goexit (t.Fatal) in Run's caller: that stack says nothing about
// the task, so the task's own travels in the panic value.
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

// Run starts fn as a task, behind whatever was queued between runs, and
// drives the clock on the calling goroutine until it quiesces: nothing
// ready and no timer pending. It then stops the idle coroutines and
// returns, so every task has finished or is parked for good by a
// deadlock report. It is the usual entry point for a simulation:
//
//	clk := simclock.NewVirtual()
//	clk.Run(func() { ... all simulated work ... })
//
// A task's panic, deadlock report or runtime.Goexit unwinds out of Run
// into its caller, so t.Fatal in a task ends a test as it would in the
// test. A task must not call Run.
func (c *Virtual) Run(fn func()) {
	defer c.stopIdle() // on a task's panic or Goexit too
	c.Go(fn)
	c.drive()
}

// NewCond returns a virtual-time condition variable bound to l. A nil l
// means no locker: the state the cond's waiters test is the clock's
// tasks' own, which needs none.
func (c *Virtual) NewCond(l sync.Locker) Cond { return &vcond{clk: c, l: l} }

// A WaitList is the wait queue of a record most instances of which are
// never waited on. It holds a cond only while tasks wait on it: the first
// Wait takes one from its clock's spares, and the Broadcast that wakes
// every waiter gives it back, its backing array kept.
// So a record pays one pointer for it, and once its clock has a spare,
// waiting allocates nothing. Wait and Broadcast behave as on a Cond
// without a locker, with the same wake order; the zero value is empty.
type WaitList struct{ cd *vcond }

// Wait parks the calling task, one of c's, at the tail of the list until
// a Broadcast readies it.
func (wl *WaitList) Wait(c *Virtual) {
	if wl.cd == nil {
		wl.cd = c.spareCond()
	}
	wl.cd.Wait()
}

// Broadcast readies every waiting task in wait order, as a Cond's would,
// and gives the list's cond back to its clock.
func (wl *WaitList) Broadcast() {
	cd := wl.cd
	if cd == nil {
		return
	}
	wl.cd = nil
	cd.Broadcast() // consumes every entry: the next append starts the array over
	cd.clk.spares = append(cd.clk.spares, cd)
}

// Waiting reports whether any task waits on the list.
func (wl *WaitList) Waiting() bool { return wl.cd != nil }

// spareCond returns a cond without a locker and without waiters: one a
// WaitList gave back, else a new one.
func (c *Virtual) spareCond() *vcond {
	if n := len(c.spares); n > 0 {
		cd := c.spares[n-1]
		c.spares = c.spares[:n-1]
		return cd
	}
	return &vcond{clk: c}
}

// drive is the scheduler: it resumes one task, or runs one event, at a
// time until the clock quiesces (nothing ready, no timer).
func (c *Virtual) drive() {
	for w := c.next(); w != nil; w = c.next() {
		if !w.event {
			c.cur = w.run.(*task)
		} else if c.runEvent(w); c.handoff != nil {
			c.cur, c.handoff = c.handoff, nil // the event resumed its parked task in its slot
		} else {
			continue
		}
		if c.admit(c.cur) {
			c.cur.Run()
		}
	}
}

// stopIdle ends the finished coroutines, so a finished simulation leaves
// no goroutine behind.
func (c *Virtual) stopIdle() {
	idle := c.idle
	c.idle = nil
	for _, t := range idle {
		t.stop()
	}
}

// next picks the task to resume or the event to run: the ready head,
// else the one the earliest timer wakes (same-deadline timers one at a
// time, in registration order), else nil: quiescence. In a deadlock the
// task whose wait completed it is resumed to panic there, so its recover()
// works; when no such task is parked, the report panics out of Run.
func (c *Virtual) next() *waiter {
	if c.readyHead < len(c.ready) {
		c.readyHead++
		return c.ready[c.readyHead-1]
	}
	c.ready, c.readyHead = c.ready[:0], 0
	if w, deadline, ok := c.timers.pop(); ok {
		if deadline > c.now {
			c.now = deadline
			c.spins = 0
		}
		w.timedOut = true
		c.unpark(w)
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
		panic(msg)
	}
	c.abortTask, c.abortMsg = c.cur, msg
	fmt.Fprintln(os.Stderr, msg)
	c.unpark(&c.cur.waiter)
	return &c.cur.waiter
}

// admit decides whether the driver resumes w, the task it just popped,
// and counts the resumption. A WaitFor waiter whose predicate is still
// false is filed again instead (recheck). Every resumption and
// re-file counts toward livelockBound; past it, the next Cond waiter popped
// is resumed only to panic with the wait-site table, and the count starts
// over.
func (c *Virtual) admit(w *task) bool {
	if c.abortTask != w { // else a deadlock report
		c.spins++
		parked := w.fn == nil // not a task Go has just started
		switch {
		case c.spins > livelockBound && parked && w.inCond:
			c.abortTask, c.abortMsg = w, fmt.Sprintf(
				"simclock: livelock: %d resumptions and re-checks at t=%v without time advancing%s",
				c.spins, c.now, waitSites())
			fmt.Fprintln(os.Stderr, c.abortMsg)
			c.spins = 0
		case w.pred != nil && !c.recheck(w):
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

// recheck evaluates the predicate of w, a WaitFor waiter the driver
// popped, under its cond's locker if it has one. When the predicate is
// false, w is filed at the cond's tail exactly as the next Wait of a
// `for !pred() { Wait() }` loop would file it, and is not resumed. w is
// c.cur, so a deadlock this completes is reported inside w.
func (c *Virtual) recheck(w *task) bool {
	cd := w.on
	if cd.l != nil {
		cd.l.Lock()
		defer cd.l.Unlock()
	}
	ok := w.pred()
	if !ok {
		cd.file(-1, w.pred)
	}
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
// resumes the task only once pred holds.
func (cd *vcond) WaitFor(pred func() bool) {
	if !pred() {
		cd.wait(-1, pred)
	}
}

// wait suspends the task; d < 0 means no timeout, and a non-nil pred makes
// it a WaitFor wait. Returns true on timeout. Precondition: caller holds
// cd.l, if the cond has a locker.
func (cd *vcond) wait(d time.Duration, pred func() bool) bool {
	c := cd.clk
	w := cd.file(d, pred)
	if cd.l != nil {
		cd.l.Unlock()
	}
	w.yield(struct{}{})
	if cd.l != nil {
		cd.l.Lock()
	}
	if c.abortTask == w {
		c.abortTask = nil
		panic(c.abortMsg) // with cd.l, if any, held, so the caller's deferred Unlock works
	}
	return w.timedOut
}

// file suspends the running task on cd and returns it. Caller holds cd.l,
// if any.
func (cd *vcond) file(d time.Duration, pred func() bool) *task {
	c := cd.clk
	w := c.suspend(true, d >= 0)
	if pred != nil {
		w.pred, w.on = pred, cd
	}
	cd.add(&w.waiter)
	if d >= 0 {
		c.timers.push(&w.waiter, c.now+d, w.seq)
	}
	c.condWaiters++
	return w
}

// add files w, already suspended under its current seq, at the tail of
// cd's waiters.
func (cd *vcond) add(w *waiter) {
	cd.dropDead()
	cd.waiters = append(cd.waiters, condEntry{w, w.seq})
}

// wake readies the first live waiter, or all of them, in wait order. A
// woken waiter's pending timer (if any) is now stale: the store counts it.
// A WaitFor waiter is readied like any other; the driver re-checks its
// predicate when it reaches the head of the ready queue. An event is
// readied in its place too, and runs there.
func (cd *vcond) wake(all bool) {
	for cd.head < len(cd.waiters) {
		e := cd.waiters[cd.head]
		cd.waiters[cd.head] = condEntry{}
		cd.head++
		if !e.live() {
			continue // already timed out, or waiting again elsewhere
		}
		cd.clk.wake(e.w)
		if !all {
			break
		}
	}
}

func (cd *vcond) Signal()    { cd.wake(false) }
func (cd *vcond) Broadcast() { cd.wake(true) }

// dropDead discards the entries at the head of the queue that can no
// longer be woken (timed out, or waiting again): only wake consumes
// entries, so a cond whose waiters time out instead would otherwise grow
// by one entry per wait.
func (cd *vcond) dropDead() {
	for cd.head < len(cd.waiters) && !cd.waiters[cd.head].live() {
		cd.waiters[cd.head] = condEntry{}
		cd.head++
	}
	if cd.head == len(cd.waiters) {
		cd.waiters, cd.head = cd.waiters[:0], 0
	}
}
