package simclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		if got := clk.Now(); got != 0 {
			t.Errorf("initial Now = %v, want 0", got)
		}
		clk.Sleep(5 * time.Second)
		if got := clk.Now(); got != 5*time.Second {
			t.Errorf("after Sleep(5s) Now = %v, want 5s", got)
		}
		clk.Sleep(250 * time.Millisecond)
		if got := clk.Now(); got != 5250*time.Millisecond {
			t.Errorf("Now = %v, want 5.25s", got)
		}
	})
}

func TestVirtualSleepZeroOrNegative(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		clk.Sleep(0)
		clk.Sleep(-time.Second)
		if got := clk.Now(); got != 0 {
			t.Errorf("Now = %v, want 0 after non-positive sleeps", got)
		}
	})
}

func TestVirtualConcurrentSleepsOverlap(t *testing.T) {
	// Two tasks sleeping concurrently should finish at max, not sum.
	clk := NewVirtual()
	clk.Run(func() {
		wg := NewWaitGroup(clk)
		wg.Add(2)
		var end1, end2 time.Duration
		clk.Go(func() {
			defer wg.Done()
			clk.Sleep(3 * time.Second)
			end1 = clk.Now()
		})
		clk.Go(func() {
			defer wg.Done()
			clk.Sleep(7 * time.Second)
			end2 = clk.Now()
		})
		wg.Wait()
		if end1 != 3*time.Second {
			t.Errorf("task1 finished at %v, want 3s", end1)
		}
		if end2 != 7*time.Second {
			t.Errorf("task2 finished at %v, want 7s", end2)
		}
		if got := clk.Now(); got != 7*time.Second {
			t.Errorf("final Now = %v, want 7s", got)
		}
	})
}

func TestVirtualManyTasksDeterministic(t *testing.T) {
	// N tasks each sleep i milliseconds; final time must equal the max
	// on every run.
	for trial := 0; trial < 3; trial++ {
		clk := NewVirtual()
		var final time.Duration
		clk.Run(func() {
			wg := NewWaitGroup(clk)
			for i := 1; i <= 50; i++ {
				i := i
				wg.Add(1)
				clk.Go(func() {
					defer wg.Done()
					for j := 0; j < 5; j++ {
						clk.Sleep(time.Duration(i) * time.Millisecond)
					}
				})
			}
			wg.Wait()
			final = clk.Now()
		})
		if want := 250 * time.Millisecond; final != want {
			t.Fatalf("trial %d: final time %v, want %v", trial, final, want)
		}
	}
}

func TestVirtualCondSignalWakesOne(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		var mu sync.Mutex
		cond := clk.NewCond(&mu)
		ready := int32(0)
		woken := int32(0)
		wg := NewWaitGroup(clk)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				mu.Lock()
				atomic.AddInt32(&ready, 1)
				cond.Wait()
				atomic.AddInt32(&woken, 1)
				mu.Unlock()
			})
		}
		// Let the waiters park: sleeping advances virtual time, which
		// only happens once all three are blocked in Wait.
		clk.Sleep(time.Millisecond)
		if got := atomic.LoadInt32(&ready); got != 3 {
			t.Fatalf("ready = %d, want 3", got)
		}
		mu.Lock()
		cond.Signal()
		mu.Unlock()
		clk.Sleep(time.Millisecond)
		if got := atomic.LoadInt32(&woken); got != 1 {
			t.Errorf("after Signal, woken = %d, want 1", got)
		}
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
		wg.Wait()
		if got := atomic.LoadInt32(&woken); got != 3 {
			t.Errorf("after Broadcast, woken = %d, want 3", got)
		}
	})
}

func TestVirtualCondWaitTimeout(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		var mu sync.Mutex
		cond := clk.NewCond(&mu)

		mu.Lock()
		start := clk.Now()
		timedOut := cond.WaitTimeout(2 * time.Second)
		elapsed := clk.Now() - start
		mu.Unlock()
		if !timedOut {
			t.Error("WaitTimeout with no signal: timedOut = false, want true")
		}
		if elapsed != 2*time.Second {
			t.Errorf("WaitTimeout advanced %v, want 2s", elapsed)
		}

		// Now a signal arriving before the deadline.
		wg := NewWaitGroup(clk)
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			clk.Sleep(time.Second)
			mu.Lock()
			cond.Signal()
			mu.Unlock()
		})
		mu.Lock()
		start = clk.Now()
		timedOut = cond.WaitTimeout(10 * time.Second)
		elapsed = clk.Now() - start
		mu.Unlock()
		if timedOut {
			t.Error("WaitTimeout with early signal: timedOut = true, want false")
		}
		if elapsed != time.Second {
			t.Errorf("signaled wait took %v of simulated time, want 1s", elapsed)
		}
		wg.Wait()
	})
}

func TestVirtualCondSignalSkipsTimedOutWaiter(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		var mu sync.Mutex
		cond := clk.NewCond(&mu)
		got := make([]string, 0, 2)
		wg := NewWaitGroup(clk)

		wg.Add(1)
		clk.Go(func() { // waiter A times out quickly
			defer wg.Done()
			mu.Lock()
			if cond.WaitTimeout(time.Second) {
				got = append(got, "A:timeout")
			} else {
				got = append(got, "A:signal")
			}
			mu.Unlock()
		})
		wg.Add(1)
		clk.Go(func() { // waiter B waits indefinitely
			defer wg.Done()
			clk.Sleep(100 * time.Millisecond) // ensure A registered first
			mu.Lock()
			cond.Wait()
			got = append(got, "B:signal")
			mu.Unlock()
		})

		clk.Sleep(5 * time.Second) // A has timed out by now
		mu.Lock()
		cond.Signal() // must reach B, not the stale A entry
		mu.Unlock()
		wg.Wait()

		found := map[string]bool{}
		for _, s := range got {
			found[s] = true
		}
		if !found["A:timeout"] || !found["B:signal"] {
			t.Errorf("events = %v, want A:timeout and B:signal", got)
		}
	})
}

func TestVirtualDeadlockPanics(t *testing.T) {
	// A task waiting on a Cond that nothing will ever signal, with no
	// pending timers, is a true deadlock: the clock must panic (on the
	// goroutine that completed the deadlock) rather than hang.
	clk := NewVirtual()
	var caught interface{}
	clk.Run(func() {
		defer func() { caught = recover() }()
		var mu sync.Mutex
		cond := clk.NewCond(&mu)
		mu.Lock()
		cond.Wait() // nothing will ever signal: deadlock
		mu.Unlock()
	})
	if caught == nil {
		t.Fatal("expected a deadlock panic, got none")
	}
	if s, ok := caught.(string); !ok || !containsStr(s, "deadlock") {
		t.Errorf("panic value = %v, want a message mentioning deadlock", caught)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWaitGroupZeroCount(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		wg := NewWaitGroup(clk)
		wg.Wait() // must not block when counter is zero
	})
}

func TestBarrierReleasesAllParties(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		const parties = 8
		b := NewBarrier(clk, parties)
		var phase1 int32
		wg := NewWaitGroup(clk)
		for i := 0; i < parties; i++ {
			i := i
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(time.Duration(i+1) * time.Second)
				b.Await()
				atomic.AddInt32(&phase1, 1)
				// All parties must arrive before any passes: at the
				// moment we pass, the slowest sleeper (8s) has slept.
				if now := clk.Now(); now < 8*time.Second {
					t.Errorf("passed barrier at %v, before slowest arrival", now)
				}
			})
		}
		wg.Wait()
		if phase1 != parties {
			t.Errorf("parties past barrier = %d, want %d", phase1, parties)
		}
	})
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		const parties, rounds = 4, 10
		b := NewBarrier(clk, parties)
		var counter int64
		wg := NewWaitGroup(clk)
		for p := 0; p < parties; p++ {
			p := p
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					clk.Sleep(time.Duration(p+1) * time.Millisecond)
					atomic.AddInt64(&counter, 1)
					b.Await()
					// After each barrier, exactly parties*(r+1)
					// increments must have happened.
					if got := atomic.LoadInt64(&counter); got != int64(parties*(r+1)) {
						t.Errorf("round %d: counter = %d, want %d", r, got, parties*(r+1))
					}
					b.Await() // second barrier so the check above is race-free
				}
			})
		}
		wg.Wait()
	})
}

func TestVirtualNowMonotonicProperty(t *testing.T) {
	// Property: for any sequence of sleep durations, Now() is
	// non-decreasing and equals the cumulative sum for a single task.
	f := func(durs []uint16) bool {
		clk := NewVirtual()
		ok := true
		clk.Run(func() {
			var sum time.Duration
			prev := clk.Now()
			for _, d := range durs {
				dd := time.Duration(d) * time.Microsecond
				clk.Sleep(dd)
				sum += dd
				now := clk.Now()
				if now < prev || now != sum {
					ok = false
					return
				}
				prev = now
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewBarrierRejectsZeroParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBarrier(clk, 0) did not panic")
		}
	}()
	NewBarrier(NewVirtual(), 0)
}
