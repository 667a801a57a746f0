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

// within fails the test if f has not returned after a second of wall time.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s did not finish within a second", what)
	}
}

func TestNonTaskCallersStartTheDriver(t *testing.T) {
	clk := NewVirtual()
	ran := make(chan struct{})
	clk.Go(func() { close(ran) }) // no Run, no driver yet
	within(t, "a task started by Go from the test goroutine", func() { <-ran })

	// Park two tasks for good: the deadlock report (recovered by the root)
	// leaves them parked and the driver gone.
	var mu sync.Mutex
	flag := 0
	cond, other := clk.NewCond(&mu), clk.NewCond(&mu)
	released := make(chan int, 2)
	clk.Run(func() {
		defer func() { recover() }()
		for i := 0; i < 2; i++ {
			clk.Go(func() {
				mu.Lock()
				for flag == 0 {
					cond.Wait()
				}
				flag--
				mu.Unlock()
				released <- 1
			})
		}
		clk.Sleep(time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		other.Wait()
	})
	mu.Lock()
	flag = 1
	cond.Signal()
	mu.Unlock()
	within(t, "a task signalled from the test goroutine", func() { <-released })
	mu.Lock()
	flag = 1
	cond.Broadcast()
	mu.Unlock()
	within(t, "a task broadcast to from the test goroutine", func() { <-released })
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
	// Run returns when the root does; the driver then stops the idle
	// coroutines and exits, a few microseconds later.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after 50 clocks of 20 tasks, %d before", n, base)
	}
}

func TestGoexitInTaskDoesNotStrandTheClock(t *testing.T) {
	clk := NewVirtual()
	siblingDone := false
	within(t, "Run", func() {
		clk.Run(func() {
			wg := NewWaitGroup(clk)
			wg.Add(2)
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(time.Second)
				runtime.Goexit() // what t.Fatal and t.Skip do
			})
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(2 * time.Second)
				siblingDone = true
			})
			wg.Wait()
		})
	})
	if !siblingDone || clk.Now() != 2*time.Second {
		t.Errorf("sibling finished = %v at t=%v, want true at 2s", siblingDone, clk.Now())
	}
}

//go:noinline
func explode() { panic("boom") }

func TestTaskPanicKeepsItsStack(t *testing.T) {
	clk := NewVirtual()
	clk.mu.Lock()
	clk.driving = true // the test drives, so it can catch what the driver re-raises
	clk.mu.Unlock()
	clk.Go(explode)
	var got interface{}
	func() {
		defer func() { got = recover() }()
		clk.drive()
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
	released := make(chan int, 4)
	clk.Run(func() {
		defer func() { caught = recover() }()
		for i := 0; i < 3; i++ {
			clk.Go(func() { parkAtSiteA(&mu, cond); released <- 1 })
		}
		clk.Go(func() { viaSiteB(never); released <- 1 })
		clk.Sleep(time.Millisecond) // all four are parked when the root joins them
		viaSiteB(never)
	})
	// The profile behind the table is process-wide: leave nothing parked
	// for the next test (or the next -count) to find.
	never.Done()
	cond.Broadcast()
	within(t, "releasing the parked tasks", func() {
		for i := 0; i < 4; i++ {
			<-released
		}
	})
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
