package simclock

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// runFunc adapts a function to Runner.
type runFunc func()

func (f runFunc) Run() { f() }

// newEvent binds a fresh event running f to clk.
func newEvent(clk *Virtual, f func()) *Event {
	e := new(Event)
	clk.InitEvent(e, runFunc(f))
	return e
}

// backends names the two timer stores the timer-order tests run on.
var backends = []struct {
	name string
	opts []VirtualOption
}{
	{"wheel", nil},
	{"heap", []VirtualOption{WithHeapTimers()}},
}

// TestEventAndTaskTimersFireInSeqOrder: events and task timers due at one
// instant share the timer store and the seq counter, so they fire in the
// order they were filed, whichever kind each is.
func TestEventAndTaskTimersFireInSeqOrder(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			clk := NewVirtual(b.opts...)
			var order []string
			clk.Run(func() {
				first := newEvent(clk, func() { order = append(order, "event 1") })
				last := newEvent(clk, func() { order = append(order, "event 2") })
				done := NewWaitGroup(clk)
				done.Add(1)
				first.Arm(2 * time.Millisecond)
				clk.Go(func() {
					defer done.Done()
					clk.Sleep(2 * time.Millisecond)
					order = append(order, "task")
				})
				clk.Sleep(time.Millisecond)
				last.Arm(time.Millisecond) // due with the others, filed last
				done.Wait()
				clk.Sleep(time.Millisecond) // the root outlives the last event
			})
			if want := []string{"event 1", "task", "event 2"}; !reflect.DeepEqual(order, want) {
				t.Errorf("fire order %q, want %q", order, want)
			}
		})
	}
}

// TestEventSignalOrderMatchesACond: Event.Signal readies an event where a
// cond's Signal would ready a task, and an event parked on a cond with
// ArmOn keeps its wait-order place among the tasks there.
func TestEventSignalOrderMatchesACond(t *testing.T) {
	clk := NewVirtual()
	var order []string
	clk.Run(func() {
		var mu sync.Mutex
		cond := clk.NewCond(&mu)
		waiter := func(name string) {
			clk.Go(func() {
				mu.Lock()
				cond.Wait()
				mu.Unlock()
				order = append(order, name)
			})
		}
		alone := newEvent(clk, func() { order = append(order, "event") })
		among := newEvent(clk, func() { order = append(order, "event on cond") })
		waiter("a")
		waiter("b")
		clk.Sleep(time.Millisecond) // a and b park, in that order
		mu.Lock()
		among.ArmOn(cond)
		mu.Unlock()
		waiter("c")
		alone.Arm(-1)
		clk.Sleep(time.Millisecond) // c parks behind the event
		mu.Lock()
		cond.Signal() // a
		alone.Signal()
		cond.Broadcast() // b, the event, c
		mu.Unlock()
		clk.Sleep(time.Millisecond)
	})
	if want := []string{"a", "event", "b", "event on cond", "c"}; !reflect.DeepEqual(order, want) {
		t.Errorf("run order %q, want %q", order, want)
	}
}

// retimeQuietly calls e.Retime(d) and fails the test if that readied a
// task or counted an event: a retime moves a deadline and does nothing else.
func retimeQuietly(t *testing.T, clk *Virtual, e *Event, d time.Duration) {
	t.Helper()
	events := EventCount()
	e.Retime(d)
	clk.mu.Lock()
	readied := len(clk.ready) - clk.readyHead
	clk.mu.Unlock()
	if got := EventCount() - events; got != 0 || readied != 0 {
		t.Errorf("Retime(%v) counted %d and readied %d, want 0 and 0", d, got, readied)
	}
}

// TestEventRetime: Retime moves a parked event's timer without running it
// or counting anything, Retime(-1) drops the timer, leaving the event to a
// Signal, and deadlines retimed to one instant fire in retime order, after
// a timer filed for that instant before any of them.
func TestEventRetime(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, clk *Virtual, log func(name string))
		want []string
	}{
		{"moves and drops", func(t *testing.T, clk *Virtual, log func(string)) {
			e := newEvent(clk, func() { log("e") })
			e.Arm(10 * time.Millisecond)
			clk.Sleep(time.Millisecond)
			retimeQuietly(t, clk, e, 3*time.Millisecond) // due at 4ms
			clk.Sleep(5 * time.Millisecond)
			e.Arm(time.Millisecond)
			retimeQuietly(t, clk, e, -1)
			clk.mu.Lock()
			live := clk.timers.hasLive()
			clk.mu.Unlock()
			if live {
				t.Error("Retime(-1) left the event's timer filed")
			}
			clk.Sleep(5 * time.Millisecond)
			e.Signal() // at 11ms
			e.Signal() // no longer parked: nothing
			clk.Sleep(time.Millisecond)
		}, []string{"e at 4ms", "e at 11ms"}},
		{"ties fire in retime order", func(t *testing.T, clk *Virtual, log func(string)) {
			clk.Go(func() {
				clk.Sleep(2 * time.Second)
				log("sleeper")
			})
			a := newEvent(clk, func() { log("a") })
			b := newEvent(clk, func() { log("b") })
			c := newEvent(clk, func() { log("c") })
			a.Arm(time.Hour)
			b.Arm(-1)
			c.Arm(2 * time.Hour)
			clk.Sleep(time.Second)
			for _, e := range []*Event{c, a, b} {
				retimeQuietly(t, clk, e, time.Second)
			}
			clk.Sleep(2 * time.Second) // the root outlives the events
		}, []string{"sleeper at 2s", "c at 2s", "a at 2s", "b at 2s"}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					clk := NewVirtual(b.opts...)
					var order []string
					clk.Run(func() {
						tc.run(t, clk, func(name string) { order = append(order, fmt.Sprintf("%s at %v", name, clk.Now())) })
					})
					if !reflect.DeepEqual(order, tc.want) {
						t.Errorf("run order %q, want %q", order, tc.want)
					}
				})
			}
		})
	}
}

// TestEventsAreNotCountedAsWakes: an event that runs a thousand times adds
// nothing to EventCount; the one task that waits on them is resumed once.
func TestEventsAreNotCountedAsWakes(t *testing.T) {
	clk := NewVirtual()
	var runs int
	var before, after uint64
	clk.Run(func() {
		var e *Event
		e = newEvent(clk, func() {
			if runs++; runs < 1000 {
				e.Arm(time.Microsecond)
			}
		})
		e.Arm(time.Microsecond)
		before = EventCount()
		clk.Sleep(time.Second)
		after = EventCount()
	})
	if runs != 1000 {
		t.Fatalf("the event ran %d times, want 1000", runs)
	}
	if got := after - before; got != 1 {
		t.Errorf("1000 event runs and one Sleep counted %d wakes, want 1", got)
	}
}

// TestAwaitResumesInTheEventsSlot: a task parked with Await goes on only
// when the event's Run resumes it, in the event's own slot — ahead of a
// task that Run readied first — and costs one wake however often the
// event ran for it.
func TestAwaitResumesInTheEventsSlot(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			clk := NewVirtual(b.opts...)
			var order []string
			var wakes uint64
			clk.Run(func() {
				var mu sync.Mutex
				cond := clk.NewCond(&mu)
				runs := 0
				var e *Event
				e = newEvent(clk, func() {
					if runs++; runs < 3 {
						e.Arm(time.Millisecond)
						return
					}
					mu.Lock()
					cond.Signal()
					mu.Unlock()
					e.Resume()
				})
				done := NewWaitGroup(clk)
				done.Add(2)
				clk.Go(func() {
					defer done.Done()
					mu.Lock()
					cond.Wait()
					mu.Unlock()
					order = append(order, fmt.Sprintf("signaled at %v", clk.Now()))
				})
				clk.Go(func() {
					defer done.Done()
					e.Arm(time.Millisecond)
					before := EventCount()
					e.Await()
					wakes = EventCount() - before
					order = append(order, fmt.Sprintf("awaiter at %v", clk.Now()))
				})
				done.Wait()
			})
			if want := []string{"awaiter at 3ms", "signaled at 3ms"}; !reflect.DeepEqual(order, want) {
				t.Errorf("order %q, want %q", order, want)
			}
			if wakes != 1 {
				t.Errorf("the awaiting task cost %d wakes, want 1", wakes)
			}
		})
	}
}

//go:noinline
func awaitForever(e *Event) { e.Await() }

// TestDeadlockCountsArmedEvents: a task awaiting an event that nothing
// will run is a deadlock, reported inside the task with the number of
// armed events and the task's wait site.
func TestDeadlockCountsArmedEvents(t *testing.T) {
	clk := NewVirtual()
	var caught string
	clk.Run(func() {
		defer func() { caught = fmt.Sprint(recover()) }()
		e := newEvent(clk, func() {})
		e.Arm(-1)
		awaitForever(e)
	})
	for _, want := range []string{
		"deadlock: 1 task(s) blocked in Cond or Event waits and 1 event(s) armed",
		"1 × score/internal/simclock.awaitForever event_test.go:",
	} {
		if !strings.Contains(caught, want) {
			t.Errorf("deadlock panic lacks %q:\n%s", want, caught)
		}
	}
}

// TestEventRunsCountTowardTheLivelockBound: a task and an event hand a
// turn back and forth at t=0 forever. Event runs count toward
// livelockBound like resumptions, so the task is resumed to report the
// livelock after about half the bound's resumptions, not the whole bound.
func TestEventRunsCountTowardTheLivelockBound(t *testing.T) {
	if raceEnabled {
		t.Skip("2^24 same-instant runs are slow under the race detector; the plain run covers the count")
	}
	clk := NewVirtual()
	var caught string
	var wakes uint64
	clk.Run(func() {
		var mu sync.Mutex
		cond := clk.NewCond(&mu)
		var e *Event
		e = newEvent(clk, func() {
			mu.Lock()
			cond.Signal()
			mu.Unlock()
			e.Arm(-1)
		})
		e.Arm(-1)
		done := NewWaitGroup(clk)
		done.Add(1)
		clk.Go(func() {
			defer done.Done()
			mu.Lock()
			defer mu.Unlock()
			defer func() { caught = fmt.Sprint(recover()) }()
			before := EventCount()
			defer func() { wakes = EventCount() - before }()
			for {
				e.Signal()
				cond.Wait()
			}
		})
		done.Wait()
	})
	if !strings.Contains(caught, "simclock: livelock:") {
		t.Fatalf("recovered %q, want the livelock report", caught)
	}
	if lo, hi := uint64(livelockBound/2-2), uint64(livelockBound/2+2); wakes < lo || wakes > hi {
		t.Errorf("the task was resumed %d times before the report, want %d–%d: half the bound, the other half event runs",
			wakes, lo, hi)
	}
}
