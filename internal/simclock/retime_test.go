package simclock

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// backends names the two timer stores every Retime test runs on.
var backends = []struct {
	name string
	opts []VirtualOption
}{
	{"wheel", nil},
	{"heap", []VirtualOption{WithHeapTimers()}},
}

// retimeQuietly calls Retime and fails the test if it readied a task or
// counted an event: a retime moves a deadline and does nothing else.
func retimeQuietly(t *testing.T, clk *Virtual, cond Cond, d time.Duration) {
	t.Helper()
	events := EventCount()
	cond.Retime(d)
	if got := EventCount() - events; got != 0 {
		t.Errorf("Retime(%v) counted %d event(s), want 0", d, got)
	}
	clk.mu.Lock()
	readied := len(clk.ready) - clk.readyHead
	clk.mu.Unlock()
	if readied != 0 {
		t.Errorf("Retime(%v) readied %d task(s), want 0", d, readied)
	}
}

func TestRetimeMovesAParkedDeadline(t *testing.T) {
	for _, b := range backends {
		for _, tc := range []struct {
			name     string
			timeout  time.Duration // < 0: an untimed Wait
			retime   time.Duration // applied at t=1s
			returnAt time.Duration
			timedOut bool
		}{
			{"earlier", 10 * time.Second, time.Second, 2 * time.Second, true},
			{"later", 2 * time.Second, 5 * time.Second, 6 * time.Second, true},
			{"cleared", 2 * time.Second, -1, 10 * time.Second, false}, // the root signals at t=10s
			{"arms an untimed Wait", -1, 3 * time.Second, 4 * time.Second, true},
		} {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				clk := NewVirtual(b.opts...)
				clk.Run(func() {
					var mu sync.Mutex
					cond := clk.NewCond(&mu)
					var returnedAt time.Duration
					var timedOut bool
					done := NewWaitGroup(clk)
					done.Add(1)
					clk.Go(func() {
						defer done.Done()
						mu.Lock()
						if tc.timeout < 0 {
							cond.Wait()
							timedOut = true // Wait has no result; only a timer or the root's signal ends it
						} else {
							timedOut = cond.WaitTimeout(tc.timeout)
						}
						returnedAt = clk.Now()
						mu.Unlock()
					})
					clk.Sleep(time.Second)
					mu.Lock()
					retimeQuietly(t, clk, cond, tc.retime)
					mu.Unlock()
					clk.Sleep(9 * time.Second)
					mu.Lock()
					if !tc.timedOut {
						cond.Signal()
					}
					mu.Unlock()
					done.Wait()
					if returnedAt != tc.returnAt {
						t.Errorf("wait returned at %v, want %v", returnedAt, tc.returnAt)
					}
					if tc.timeout >= 0 && timedOut != tc.timedOut {
						t.Errorf("WaitTimeout reported timed out = %v, want %v", timedOut, tc.timedOut)
					}
				})
				if clk.timers.hasLive() {
					t.Error("a live timer is still filed after the clock quiesced")
				}
			})
		}
	}
}

// TestRetimedTiesFireInRetimeOrder: three tasks whose deadlines are moved
// to one instant fire in the order they were retimed, after a timer filed
// for that instant before any of them.
func TestRetimedTiesFireInRetimeOrder(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			clk := NewVirtual(b.opts...)
			var order []string
			clk.Run(func() {
				var mu sync.Mutex
				conds := map[string]Cond{}
				done := NewWaitGroup(clk)
				done.Add(4)
				clk.Go(func() {
					defer done.Done()
					clk.Sleep(2 * time.Second)
					order = append(order, "sleeper")
				})
				for _, name := range []string{"a", "b", "c"} {
					cond := clk.NewCond(&mu)
					conds[name] = cond
					timeout := time.Duration(len(conds)) * time.Hour
					clk.Go(func() {
						defer done.Done()
						mu.Lock()
						if name == "b" {
							cond.Wait()
						} else {
							cond.WaitTimeout(timeout)
						}
						order = append(order, name)
						mu.Unlock()
					})
				}
				clk.Sleep(time.Second)
				mu.Lock()
				for _, name := range []string{"c", "a", "b"} {
					retimeQuietly(t, clk, conds[name], time.Second)
				}
				mu.Unlock()
				done.Wait()
			})
			if want := []string{"sleeper", "c", "a", "b"}; !reflect.DeepEqual(order, want) {
				t.Errorf("fire order %q, want %q", order, want)
			}
		})
	}
}

// TestRetimeWithoutExactlyOneParkedTask: a cond nobody waits on, or whose
// only waiter already timed out, ignores Retime; a cond with two parked
// tasks panics.
func TestRetimeWithoutExactlyOneParkedTask(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			clk := NewVirtual(b.opts...)
			clk.Run(func() {
				var mu sync.Mutex
				cond := clk.NewCond(&mu)
				mu.Lock()
				retimeQuietly(t, clk, cond, time.Second) // never waited on
				cond.WaitTimeout(time.Second)
				retimeQuietly(t, clk, cond, time.Second) // its one waiter timed out
				mu.Unlock()
				if clk.timers.hasLive() {
					t.Error("Retime with no parked task filed a timer")
				}

				parked := NewWaitGroup(clk)
				parked.Add(2)
				for i := 0; i < 2; i++ {
					clk.Go(func() {
						defer parked.Done()
						mu.Lock()
						cond.Wait()
						mu.Unlock()
					})
				}
				clk.Sleep(time.Second)
				mu.Lock()
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "more than one parked task") {
							t.Errorf("Retime with two parked tasks: recovered %q, want the ambiguity panic", msg)
						}
					}()
					cond.Retime(time.Second)
				}()
				cond.Broadcast()
				mu.Unlock()
				parked.Wait()
			})
		})
	}
}

// TestTimedOutWaitsLeaveNoCondEntries: only a wake consumes a cond entry,
// so a cond whose waiter only ever times out must drop the dead entries
// itself instead of growing one per wait.
func TestTimedOutWaitsLeaveNoCondEntries(t *testing.T) {
	clk := NewVirtual()
	var mu sync.Mutex
	cond := clk.NewCond(&mu)
	clk.Run(func() {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < 10_000; i++ {
			cond.WaitTimeout(time.Nanosecond)
		}
	})
	if n := len(cond.(*vcond).waiters); n > 1 {
		t.Errorf("10,000 timed-out waits left %d cond entries, want at most 1", n)
	}
}
