package simclock

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestWaitListWakesLikeACond: tasks parked on a WaitList resume in the
// order and at the instants tasks parked the same way on a Cond do —
// staggered first waits, re-waits after each wake, and a Broadcast from a
// woken task while the others it woke have yet to run, so re-waits land
// on a cond the list took after giving its last one back.
func TestWaitListWakesLikeACond(t *testing.T) {
	run := func(useList bool) []string {
		clk := NewVirtual()
		var log []string
		clk.Run(func() {
			var wl WaitList
			cd := clk.NewCond(nil)
			wait, broadcast := cd.Wait, cd.Broadcast
			if useList {
				wait, broadcast = func() { wl.Wait(clk) }, wl.Broadcast
			}
			wg := NewWaitGroup(clk)
			for i := 0; i < 6; i++ {
				wg.Add(1)
				clk.Go(func() {
					defer wg.Done()
					clk.Sleep(time.Duration(i%2) * time.Microsecond)
					for r := 0; r <= i%3; r++ {
						wait()
						log = append(log, fmt.Sprintf("%d.%d@%v", i, r, clk.Now()))
						if i == 0 {
							broadcast()
						}
					}
				})
			}
			for b := 0; b < 4; b++ {
				clk.Sleep(2 * time.Microsecond)
				broadcast()
			}
			wg.Wait()
		})
		return log
	}
	if onCond, onList := run(false), run(true); !slices.Equal(onCond, onList) {
		t.Errorf("wake order differs:\ncond: %v\nlist: %v", onCond, onList)
	}
}

// TestWaitListRecyclesItsCond: a list holds a cond only while a task waits
// on it, and once its clock has a spare, parking and releasing a task
// allocate nothing.
func TestWaitListRecyclesItsCond(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		var wl WaitList
		waiter := func() { wl.Wait(clk) }
		var held bool
		cycle := func() {
			clk.Go(waiter)
			clk.Sleep(time.Microsecond)
			held = wl.Waiting()
			wl.Broadcast()
			clk.Sleep(time.Microsecond)
		}
		cycle()
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("a park and release on a warmed list made %v allocations, want 0", allocs)
		}
		if !held || wl.Waiting() {
			t.Errorf("cond held while a task waits = %v, after the Broadcast = %v; want true, false", held, wl.Waiting())
		}
	})
}
