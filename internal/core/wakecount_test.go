package core

import (
	"testing"

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
// checkpoints adds 54 resumptions, all of them the flush workers' and the
// restores' own.
//
// Before WaitFor each parked in a plain Wait loop that every bump resumed,
// and the same run took 133 resumptions for n = 8 and 272 for n = 16.
func TestIdleDaemonsAreResumedOnce(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want uint64
	}{{8, 52}, {16, 106}} {
		var got uint64
		run(t, func(clk *simclock.Virtual) {
			c := newRig(t, clk, func(p *Params) { p.AutoStartPrefetch = true }).client
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
