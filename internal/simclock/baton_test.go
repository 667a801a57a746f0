package simclock

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// orderTrace runs one scenario that exercises every way a task becomes
// ready and records the order things happen in. Tasks append without a
// lock: one runs at a time.
func orderTrace(opts ...VirtualOption) []string {
	clk := NewVirtual(opts...)
	var mu sync.Mutex
	cond := clk.NewCond(&mu)
	var trace []string
	log := func(s string) { trace = append(trace, s) }
	waiter := func(name string) {
		clk.Go(func() {
			log(name + " waits")
			mu.Lock()
			cond.Wait()
			mu.Unlock()
			log(name + " woke")
		})
	}
	sleeper := func(name string) {
		clk.Go(func() {
			log(name + " sleeps")
			clk.Sleep(time.Millisecond)
			log(name + " fired")
		})
	}
	clk.Run(func() {
		waiter("a")
		waiter("b")
		waiter("c")
		sleeper("s1")
		sleeper("s2")
		log("root blocks") // no child has started yet
		clk.Sleep(time.Millisecond)
		// t = 1ms: root's timer was registered first; s1 and s2 are due
		// at this same instant and must wait for everything readied here.
		clk.Go(func() { log("child runs") })
		mu.Lock()
		cond.Signal()    // a, behind the child readied before it
		cond.Broadcast() // b then c, in wait order
		mu.Unlock()
		log("root blocks again") // the waker runs on, ahead of the woken
		clk.Sleep(time.Millisecond)
		log("root done")
	})
	return trace
}

func TestReadyOrderIsTheOrderThingsHappen(t *testing.T) {
	want := []string{
		"root blocks",
		"a waits", "b waits", "c waits", "s1 sleeps", "s2 sleeps",
		"root blocks again",
		"child runs", "a woke", "b woke", "c woke",
		"s1 fired", "s2 fired",
		"root done",
	}
	for i := 0; i < 200; i++ {
		if got := orderTrace(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d:\n got %q\nwant %q", i, got, want)
		}
	}
	if got := orderTrace(WithHeapTimers()); !reflect.DeepEqual(got, want) {
		t.Fatalf("heap timers:\n got %q\nwant %q", got, want)
	}
}

// TestCallsBetweenRunsAreQueued: a Go, Signal or Broadcast made between
// runs runs nothing; the next Run executes them in the order they were
// made, ahead of its own task.
func TestCallsBetweenRunsAreQueued(t *testing.T) {
	clk := NewVirtual()
	cond, other := clk.NewCond(nil), clk.NewCond(nil)
	var trace []string
	log := func(s string) { trace = append(trace, s) }
	// Park three tasks for good: the deadlock report, recovered by the
	// root, leaves them parked when Run returns.
	clk.Run(func() {
		defer func() { recover() }()
		for _, name := range []string{"a", "b", "c"} {
			clk.Go(func() {
				cond.Wait()
				log(name + " woke")
			})
		}
		clk.Sleep(time.Millisecond)
		other.Wait()
	})
	clk.Go(func() { log("go") })
	cond.Signal()    // a
	cond.Broadcast() // b then c, in wait order
	if len(trace) != 0 {
		t.Fatalf("calls between runs ran %q before the next Run", trace)
	}
	clk.Run(func() { log("root") })
	if want := []string{"go", "a woke", "b woke", "c woke", "root"}; !reflect.DeepEqual(trace, want) {
		t.Errorf("the next Run ran %q, want %q", trace, want)
	}
}

func TestNoGoroutineOutlivesItsClock(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		clk := NewVirtual()
		clk.Run(func() {
			wg := NewWaitGroup(clk)
			for j := 0; j < 20; j++ {
				j := j
				wg.Add(1)
				clk.Go(func() {
					defer wg.Done()
					clk.Sleep(time.Duration(j%4+1) * time.Millisecond)
				})
			}
			wg.Wait()
		})
	}
	// Run returns only after stopping the idle coroutines.
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after 50 clocks of 20 tasks, %d before", n, base)
	}
}

// TestGoexitInTaskUnwindsRun: runtime.Goexit in a task, which is what
// t.Fatal and t.Skip do, ends Run's caller as it would if the caller had
// called it: the caller's deferred code runs and the line after Run does
// not.
func TestGoexitInTaskUnwindsRun(t *testing.T) {
	clk := NewVirtual()
	deferred, after := false, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { deferred = true }()
		clk.Run(func() {
			clk.Sleep(time.Second)
			runtime.Goexit()
		})
		after = true
	}()
	<-done
	if !deferred || after || clk.Now() != time.Second {
		t.Errorf("deferred = %v, after Run = %v at t=%v; want true, false at 1s", deferred, after, clk.Now())
	}
}

//go:noinline
func explode() { panic("boom") }

func TestTaskPanicKeepsItsStack(t *testing.T) {
	clk := NewVirtual()
	var got interface{}
	func() {
		defer func() { got = recover() }()
		clk.Run(explode)
	}()
	s, _ := got.(string)
	if !strings.Contains(s, "boom") || !strings.Contains(s, "simclock.explode") {
		t.Errorf("re-raised panic = %q, want the value and the panicking function", s)
	}
}

//go:noinline
func parkAtSiteA(mu *sync.Mutex, c Cond) {
	mu.Lock()
	c.Wait()
	mu.Unlock()
}

//go:noinline
func parkAtSiteB(wg *WaitGroup) { wg.Wait() }

//go:noinline
func viaSiteB(wg *WaitGroup) { parkAtSiteB(wg) }

func TestDeadlockPanicListsWaitSites(t *testing.T) {
	clk := NewVirtual()
	var mu sync.Mutex
	cond := clk.NewCond(&mu)
	never := NewWaitGroup(clk)
	never.Add(1)
	var caught interface{}
	released := 0
	clk.Run(func() {
		defer func() { caught = recover() }()
		for i := 0; i < 3; i++ {
			clk.Go(func() { parkAtSiteA(&mu, cond); released++ })
		}
		clk.Go(func() { viaSiteB(never); released++ })
		clk.Sleep(time.Millisecond) // all four are parked when the root joins them
		viaSiteB(never)
	})
	// The profile behind the table is process-wide: leave nothing parked
	// for the next test (or the next -count) to find.
	clk.Run(func() {
		never.Done()
		cond.Broadcast()
	})
	if released != 4 {
		t.Errorf("%d of the 4 parked tasks released", released)
	}
	msg, _ := caught.(string)
	for _, want := range []string{
		"deadlock: 5 task(s) blocked",
		"3 × score/internal/simclock.parkAtSiteA baton_test.go:",
		"2 × score/internal/simclock.parkAtSiteB baton_test.go:",
		"< score/internal/simclock.viaSiteB baton_test.go:",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock panic lacks %q:\n%s", want, msg)
		}
	}
}

// TestDeadlockAfterTheLastTaskReturnedPanicsOutOfRun: when the task the
// driver resumed last completed a deadlock by returning, no parked task
// can take the report, so it panics out of Run, where Run's caller can
// recover it.
func TestDeadlockAfterTheLastTaskReturnedPanicsOutOfRun(t *testing.T) {
	clk := NewVirtual()
	var mu sync.Mutex
	cond := clk.NewCond(&mu)
	released := false
	var caught interface{}
	func() {
		defer func() { caught = recover() }()
		clk.Run(func() {
			clk.Go(func() { parkAtSiteA(&mu, cond); released = true })
			clk.Sleep(time.Millisecond) // the child parks, then the root returns
		})
	}()
	clk.Run(cond.Broadcast) // the profile behind the table is process-wide
	if !released {
		t.Error("the parked task was not released")
	}
	msg, _ := caught.(string)
	for _, want := range []string{
		"deadlock: 1 task(s) blocked",
		"1 × score/internal/simclock.parkAtSiteA baton_test.go:",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("the panic out of Run lacks %q:\n%s", want, msg)
		}
	}
}
