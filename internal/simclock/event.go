//go:build go1.23

package simclock

import (
	"fmt"
	"time"
)

// A Runner is the callback of an Event.
type Runner interface {
	// Run is called by the clock's driver, not in a task, in the slot
	// where the event was readied or its timer fired. It may signal
	// conds, arm, signal and retime events, resume one task an event of
	// its clock holds (its own or another's), and take short locks, but
	// it must not block: no Sleep and no Cond wait.
	// Simulated time stands still while it runs.
	Run()
}

// An Event is a parked callback: the lean alternative to a task for work
// that only reacts — a timer that fires, a signal that arrives — and never
// blocks in between. It is filed in the same ready queue, timer store and
// cond wait lists as a parked task and draws its tie-break seq from the
// same counter, so it runs exactly where a task parked at the same moment
// would have been resumed; the driver calls its Runner there instead of
// switching to a coroutine. Event runs are not counted in EventCount, and
// do count toward the livelock bound.
//
// An event is parked by Arm or ArmOn and is run at most once per parking:
// when its timer fires or a signal readies it, whichever comes first. Run
// may park it again.
//
// A task can hand its waiting to an event: Await parks the task on the
// event, and the event's Run decides, each time it runs, whether the task
// goes on (Resume) — in that same slot, as if its own wait had ended
// there — or stays parked while the event is armed again. Another event's
// Run may resume it too, in its own slot. The task costs one resumption
// however many times the events ran for it.
//
// All methods are for tasks and for events' Run, and an event belongs to
// the clock that bound it (InitEvent).
type Event struct {
	waiter
	clk    *Virtual
	parked *task // the task Await parked here, until Resume
}

// InitEvent binds e to the clock and to r, unparked. e is usually a field
// of the record r points to, so the event costs no allocation of its own.
func (c *Virtual) InitEvent(e *Event, r Runner) {
	*e = Event{clk: c}
	e.run, e.event, e.fired = r, true, true
}

// Arm parks the event under a fresh seq: with d >= 0 its timer fires d of
// simulated time from now, as a task's Sleep(d) or WaitTimeout(d) filed at
// this moment would; with d < 0 only Signal or Retime can make it run.
// Arming a parked event replaces its parking: its timer goes stale and its
// cond entry stops being live.
func (e *Event) Arm(d time.Duration) {
	if e.fired {
		e.clk.armed++
		e.fired, e.timed = false, false
	}
	e.timedOut = false
	e.clk.retime(&e.waiter, d)
}

// ArmOn parks the event, untimed, at the tail of cd's waiters, as a task's
// Wait on cd at this moment would: cd's Signal and Broadcast ready it in
// wait order among the tasks parked there. cd must belong to the event's
// clock; the caller holds cd's locker, if it has one.
func (e *Event) ArmOn(cd Cond) {
	vc := cd.(*vcond)
	if vc.clk != e.clk {
		panic("simclock: ArmOn with a cond of another clock")
	}
	e.Arm(-1)
	vc.add(&e.waiter)
}

// Signal readies a parked event at the tail of the ready queue, where a
// cond's Signal would ready a task, and drops its timer. On an event that
// is not parked it does nothing.
func (e *Event) Signal() {
	if !e.fired {
		e.clk.wake(&e.waiter)
	}
}

// Retime moves a parked event's timer to d of simulated time from now, or
// drops it when d < 0, without running the event: the timer is re-filed
// under a fresh seq, the bookkeeping a run followed by a re-arm would do,
// so ties fire in the order deadlines were last set. It is the one way to
// move a deadline without a wakeup. On an event that is not parked it
// does nothing. The fresh seq also takes an ArmOn event off its cond.
func (e *Event) Retime(d time.Duration) {
	if !e.fired {
		e.clk.retime(&e.waiter, d)
	}
}

// Await parks the calling task on the event until the event's Run calls
// Resume. The task files nothing of its own: the event's parkings are
// what run, and a signal or timer meant for the task is one of them. The
// caller holds no lock another task or event needs. Like a Cond wait, the
// task counts toward deadlock detection while parked, and a deadlock it
// completes is reported inside it.
func (e *Event) Await() {
	c := e.clk
	if e.parked != nil {
		panic("simclock: Await on an event another task awaits")
	}
	t := c.suspend(true, false)
	e.parked = t
	c.condWaiters++
	t.yield(struct{}{})
	if c.abortTask == t {
		c.abortTask = nil
		panic(c.abortMsg)
	}
}

// Resume ends the Await of the task parked on the event: the driver
// resumes it as soon as the running event's Run returns, in that event's
// slot, ahead of everything ready, and counts it in EventCount. It may be
// called from the Run of any event of the clock, not only from e's own —
// a record whose work another event carries on hands the task over where
// that work ends — but at most once per run.
func (e *Event) Resume() {
	c := e.clk
	t := e.parked
	if t == nil || !c.inEvent || c.handoff != nil {
		panic("simclock: Resume outside an event's Run, twice in one, or with no task awaiting it")
	}
	e.parked = nil
	t.fired = true
	c.condWaiters--
	c.handoff = t
}

// runEvent runs w, an event the driver popped, in its slot. It counts
// toward the livelock bound but not in EventCount. Events cannot receive a
// livelock report, so one popped well past the bound, with no task picking
// the report up, panics out of Run.
func (c *Virtual) runEvent(w *waiter) {
	c.spins++
	if c.spins > 2*livelockBound {
		panic(fmt.Sprintf("simclock: livelock: %d event runs, resumptions and re-checks at t=%v without time advancing%s",
			c.spins, c.now, waitSites()))
	}
	c.inEvent = true
	w.run.Run()
	c.inEvent = false
}
