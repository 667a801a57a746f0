package simclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// A waitOp is one step of a waitProgram task.
type waitOp struct {
	kind int // one of the op constants below
	arg  int // the bit mask to wait for, set or clear; the sleep in µs; the child's script
}

const (
	opWait = iota
	opSet
	opClear
	opSignal
	opBroadcast
	opSleep
	opGo
	numOps
)

// waitProgram is a seeded random program for the WaitFor exactness test:
// tasks on one shared cond set and clear bits, Signal, Broadcast, Sleep,
// start children with Go, and wait until all bits of a mask are set. A
// closer sets done, which every predicate accepts, once the longest chain
// of sleeps has passed, so every program finishes.
type waitProgram struct {
	scripts [][]waitOp // each task runs one; opGo names its child's
	roots   []int      // the scripts that start at once
}

func newWaitProgram(seed int64, roots int) *waitProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &waitProgram{}
	var gen func(depth int) int
	gen = func(depth int) int {
		i := len(p.scripts)
		p.scripts = append(p.scripts, nil)
		script := make([]waitOp, 4+rng.Intn(12))
		for j := range script {
			op := waitOp{kind: rng.Intn(numOps)}
			switch op.kind {
			case opWait, opSet, opClear:
				op.arg = 1 + rng.Intn(7)
			case opSleep:
				op.arg = rng.Intn(4)
			case opGo:
				if depth == 2 {
					op.kind = opBroadcast
					break
				}
				op.arg = gen(depth + 1)
			}
			script[j] = op
		}
		p.scripts[i] = script
		return i
	}
	for i := 0; i < roots; i++ {
		p.roots = append(p.roots, gen(0))
	}
	return p
}

// waitRun is what one run of a waitProgram observed.
type waitRun struct {
	log        []string // "task.step@time", one per step, in the order they ran
	events     uint64   // EventCount delta
	reparks    int      // woken with the predicate still false, parked again (loop form only)
	falseEvals int      // predicate evaluations that returned false, by task or driver
}

// run executes the program, parking with WaitFor when waitFor is set and
// with `for !pred() { Wait() }` otherwise.
func (p *waitProgram) run(waitFor bool, opts ...VirtualOption) waitRun {
	clk := NewVirtual(opts...)
	var mu sync.Mutex
	cond := clk.NewCond(&mu)
	var bits int
	done := false
	var r waitRun
	preds := make([]func() bool, 8)
	for mask := range preds {
		preds[mask] = func() bool {
			ok := done || bits&mask == mask
			if !ok {
				r.falseEvals++
			}
			return ok
		}
	}
	wg := NewWaitGroup(clk)
	var start func(i int)
	start = func(i int) {
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			for j, op := range p.scripts[i] {
				mu.Lock()
				switch op.kind {
				case opWait:
					pred := preds[op.arg]
					if waitFor {
						cond.WaitFor(pred)
					} else if !pred() {
						for cond.Wait(); !pred(); cond.Wait() {
							r.reparks++
						}
					}
				case opSet:
					bits |= op.arg
				case opClear:
					bits &^= op.arg
				case opSignal:
					cond.Signal()
				case opBroadcast:
					cond.Broadcast()
				case opGo:
					start(op.arg)
				}
				r.log = append(r.log, fmt.Sprintf("%d.%d@%v", i, j, clk.Now()))
				mu.Unlock()
				if op.kind == opSleep {
					clk.Sleep(time.Duration(op.arg) * time.Microsecond)
				}
			}
		})
	}
	events := EventCount()
	clk.Run(func() {
		for _, i := range p.roots {
			start(i)
		}
		clk.Sleep(time.Millisecond) // past every chain of sleeps: at most 16 × 3 µs × 3 levels
		mu.Lock()
		done = true
		cond.Broadcast()
		mu.Unlock()
		wg.Wait()
	})
	r.events = EventCount() - events
	return r
}

// checkWaitForExact runs one program in both forms and fails unless they
// ran the same steps in the same order at the same times, the driver
// re-filed exactly the wakes the loop re-parked, and each of those is the
// one EventCount the WaitFor run did not spend. It returns the re-files.
func checkWaitForExact(t *testing.T, seed int64, roots int, opts ...VirtualOption) int {
	t.Helper()
	p := newWaitProgram(seed, roots)
	loop, wf := p.run(false, opts...), p.run(true, opts...)
	if !reflect.DeepEqual(loop.log, wf.log) {
		t.Fatalf("seed %d: the WaitFor run diverged from the wait loop:\nloop    %q\nWaitFor %q", seed, loop.log, wf.log)
	}
	// A loop re-park is one false evaluation by the task; a re-file is one
	// by the driver. Every other evaluation is the same in both runs.
	if loop.falseEvals != wf.falseEvals {
		t.Errorf("seed %d: %d false predicate checks in the loop, %d with WaitFor", seed, loop.falseEvals, wf.falseEvals)
	}
	if got := loop.events - wf.events; got != uint64(loop.reparks) {
		t.Errorf("seed %d: EventCount %d (loop) - %d (WaitFor) = %d, want the %d re-files",
			seed, loop.events, wf.events, got, loop.reparks)
	}
	return loop.reparks
}

func TestWaitForMatchesTheWaitLoop(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			refiles := 0
			for seed := int64(1); seed <= 60; seed++ {
				refiles += checkWaitForExact(t, seed, 2+int(seed%7), b.opts...)
			}
			if refiles == 0 {
				t.Error("no program re-filed a waiter; the test exercises nothing")
			}
		})
	}
}

func FuzzWaitForMatchesTheWaitLoop(f *testing.F) {
	f.Add(int64(1), uint8(3), false)
	f.Add(int64(7), uint8(8), true)
	f.Add(int64(42), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, roots uint8, heap bool) {
		var opts []VirtualOption
		if heap {
			opts = append(opts, WithHeapTimers())
		}
		checkWaitForExact(t, seed, 1+int(roots%12), opts...)
	})
}

//go:noinline
func parkForAtSiteC(mu *sync.Mutex, c Cond, pred func() bool) {
	mu.Lock()
	defer mu.Unlock()
	c.WaitFor(pred)
}

// TestWaitForDeadlockReportsTheSite: three tasks park with WaitFor on a
// predicate nothing will make true. The root wakes them and returns, so the
// last entries the driver pops are re-files and the last task it resumed
// has finished. The deadlock must still panic once, inside one of the
// three, naming their wait site.
func TestWaitForDeadlockReportsTheSite(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			clk := NewVirtual(b.opts...)
			var mu sync.Mutex
			cond := clk.NewCond(&mu)
			release := false
			pred := func() bool { return release }
			var caught []string
			finished := 0
			clk.Run(func() {
				for i := 0; i < 3; i++ {
					clk.Go(func() {
						defer func() { finished++ }()
						defer func() {
							if r := recover(); r != nil {
								caught = append(caught, fmt.Sprint(r))
							}
						}()
						parkForAtSiteC(&mu, cond, pred)
					})
				}
				clk.Sleep(time.Millisecond)
				mu.Lock()
				cond.Broadcast()
				mu.Unlock()
			})
			// Release the two tasks the report left parked: the profile
			// behind the table is process-wide.
			clk.Run(func() {
				mu.Lock()
				release = true
				cond.Broadcast()
				mu.Unlock()
			})
			if finished != 3 {
				t.Errorf("%d of the 3 tasks finished", finished)
			}
			if len(caught) != 1 {
				t.Fatalf("%d task(s) recovered a panic, want 1: %q", len(caught), caught)
			}
			for _, want := range []string{
				"deadlock: 3 task(s) blocked",
				"3 × score/internal/simclock.parkForAtSiteC waitfor_test.go:",
			} {
				if !strings.Contains(caught[0], want) {
					t.Errorf("deadlock panic lacks %q:\n%s", want, caught[0])
				}
			}
		})
	}
}

//go:noinline
func pingPong(mu *sync.Mutex, c Cond, turn *int, me int, stop *bool) {
	for !*stop {
		*turn = 1 - me
		c.Broadcast()
		for *turn != me && !*stop {
			c.Wait()
		}
	}
}

//go:noinline
func bystand(c Cond, stopped func() bool) { c.WaitFor(stopped) }

// TestSameInstantPingPongIsReportedAsALivelock: two tasks hand a turn back
// and forth with Broadcast at t=0 forever, and every Broadcast also wakes
// 62 bystanders whose WaitFor predicate stays false. Time never advances,
// so past livelockBound resumptions and re-files the driver must resume a
// parked task to panic with the wait-site table. The bystanders make most
// of the count re-files, which are cheaper than coroutine switches.
func TestSameInstantPingPongIsReportedAsALivelock(t *testing.T) {
	if raceEnabled {
		t.Skip("2^24 resumptions are slow under the race detector; the plain run covers the count")
	}
	clk := NewVirtual()
	var mu sync.Mutex
	cond := clk.NewCond(&mu)
	turn, stop := 0, false
	stopped := func() bool { return stop }
	var caught []string
	guarded := func(body func()) func() {
		return func() {
			mu.Lock()
			defer mu.Unlock()
			defer func() {
				if r := recover(); r != nil {
					caught = append(caught, fmt.Sprint(r))
					stop = true
					cond.Broadcast()
				}
			}()
			body()
		}
	}
	clk.Run(func() {
		wg := NewWaitGroup(clk)
		const bystanders = 62
		wg.Add(bystanders + 2)
		for i := 0; i < bystanders; i++ {
			clk.Go(func() { defer wg.Done(); guarded(func() { bystand(cond, stopped) })() })
		}
		for me := 0; me < 2; me++ {
			clk.Go(func() { defer wg.Done(); guarded(func() { pingPong(&mu, cond, &turn, me, &stop) })() })
		}
		wg.Wait()
	})
	if clk.Now() != 0 {
		t.Errorf("the ping-pong ran until t=%v, want it stopped at t=0", clk.Now())
	}
	if len(caught) != 1 {
		t.Fatalf("%d task(s) recovered a panic, want 1: %q", len(caught), caught)
	}
	for _, want := range []string{
		fmt.Sprintf("livelock: %d resumptions and re-checks at t=0s", livelockBound+1),
		"2 × score/internal/simclock.pingPong waitfor_test.go:",
		"62 × score/internal/simclock.bystand waitfor_test.go:",
	} {
		if !strings.Contains(caught[0], want) {
			t.Errorf("livelock panic lacks %q:\n%s", want, caught[0])
		}
	}
}

// TestNilLockerCond: a cond made with NewCond(nil) has no locker to drop
// and retake, and parks and wakes as a cond with one does: Wait on a
// Broadcast, WaitFor once its predicate holds, WaitTimeout at its deadline.
func TestNilLockerCond(t *testing.T) {
	clk := NewVirtual()
	cond := clk.NewCond(nil)
	ready := false
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, clk.Now())) }
	clk.Run(func() {
		wg := NewWaitGroup(clk)
		wg.Add(3)
		clk.Go(func() { defer wg.Done(); cond.Wait(); note("wait") })
		clk.Go(func() { defer wg.Done(); cond.WaitFor(func() bool { return ready }); note("waitfor") })
		clk.Go(func() { defer wg.Done(); note(fmt.Sprint("timeout=", cond.WaitTimeout(time.Second))) })
		clk.Sleep(2 * time.Second)
		cond.Broadcast() // wakes Wait; WaitFor's predicate is still false
		clk.Sleep(time.Second)
		ready = true
		cond.Broadcast()
		wg.Wait()
	})
	if got, want := strings.Join(log, " "), "timeout=true@1s wait@2s waitfor@3s"; got != want {
		t.Errorf("log %q, want %q", got, want)
	}
}
