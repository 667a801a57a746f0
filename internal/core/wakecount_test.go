package core

import (
	"testing"
	"time"

	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/simclock"
)

// TestIdleDaemonsAreResumedOnce pins the engine's resumptions
// (simclock.EventCount) for a small unhinted client with the prefetcher
// started: n checkpoints, WaitFlush, n restores in write order, Close. No
// hint ever arrives, so the prefetcher and the host stager have nothing to
// do, and WaitFlush has its answer only once the chain drains. All three park
// with WaitFor: the flush chain's and the restores' bumps ready them, and
// the clock files them back without resuming them. Each is resumed once,
// at Close or when the chain drains, for any n: going from 8 to 16
// checkpoints adds 52 resumptions, all of them the flush workers' and the
// restores' own. A parked cache reservation is resumed only when an entry
// write cleared what it waits on (sendWakes).
//
// Before WaitFor each parked in a plain Wait loop that every bump resumed,
// and the same run took 133 resumptions for n = 8 and 272 for n = 16.
func TestIdleDaemonsAreResumedOnce(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want uint64
	}{{8, 51}, {16, 103}} {
		var got uint64
		run(t, func(clk *simclock.Virtual) {
			c := newRig(t, clk, nil).client
			c.PrefetchStart()
			before := simclock.EventCount()
			for i := 0; i < tc.n; i++ {
				if err := c.Checkpoint(ID(i), pay(MB)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.WaitFlush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.n; i++ {
				if _, err := c.Restore(ID(i)); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()
			got = simclock.EventCount() - before
		})
		if got != tc.want {
			t.Errorf("n = %d: %d resumptions, want %d", tc.n, got, tc.want)
		}
	}
}

// TestParkedReservationIgnoresWakesThatUnblockNothing: a writer parked on
// a claimed GPU window waits for its entries to stop reading Kept, and
// only the eviction rule writes them (rescore). Tier-health flips
// change no entry, so they must not resume it: each resume would record
// one more eviction_wait observation and split the one stall it measures.
func TestParkedReservationIgnoresWakesThatUnblockNothing(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.GPUCacheSize = 2 * MB })
		c := r.client
		defer c.Close()
		_, pcie := r.cluster.Nodes[0].GPULinks(0)
		pcie.SetInterceptor(func(string, int64) fabric.FaultDecision {
			return fabric.FaultDecision{Delay: time.Second}
		})
		for v := ID(0); v < 2; v++ {
			if err := c.Checkpoint(v, pay(MB)); err != nil {
				t.Fatalf("Checkpoint(%d): %v", v, err)
			}
		}
		stalls := func() int64 { return c.Metrics().Snapshot().Histograms[metrics.HistEvictionWait].Count }
		written := false
		writer := simclock.NewWaitGroup(clk)
		writer.Add(1)
		clk.Go(func() {
			defer writer.Done()
			if err := c.Checkpoint(2, pay(MB)); err != nil {
				t.Errorf("Checkpoint(2): %v", err)
			}
			written = true
		})
		clk.Sleep(10 * time.Millisecond) // the writer claims a window and parks
		before := stalls()
		for i := 0; i < 5; i++ {
			c.degradeTier(TierPFS)
			c.healTier(TierPFS)
			clk.Sleep(time.Millisecond)
		}
		if written {
			t.Fatal("the writer did not park: both residents are still flushing")
		}
		if n := stalls() - before; n != 0 {
			t.Errorf("parked writer resumed %d times", n)
		}
		writer.Wait() // the flushes land and clear the window's Kept
		if n := stalls() - before; n != 1 {
			t.Errorf("writer finished after %d stalls, want 1", n)
		}
	})
}
