package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/simclock"
)

// TestStalledFlushReroutesToPFS pins the stall-guarded SSD write of a hedged
// flush. Three warm-up flushes calibrate the SSD class at 40 ms per MB, so
// the next SSD write's deadline is 80 ms. That write is held back on the
// NVMe link; past its deadline the flush reroutes to the PFS, a 100 ms
// write. The variants:
//
//   - the reroute lands while the SSD write is still stalled; the SSD write
//     lands later and settles itself in the background;
//   - the SSD write lands while the reroute is in flight;
//   - the reroute fails, and the SSD write alone makes the version durable.
//
// Each checks the stall counters, the stall_reroute histogram, that the
// version is credited durable exactly once, the state each replica ends
// in, the SSD's health once the stalled write has settled (a 26× slow
// write breaches the SSD class and quarantines it), and that Close joins
// every leg still in flight.
//
// Each of these mutations, tried one at a time, fails it: the late SSD leg
// never settling its record; accountFate crediting a fate a second time;
// the reroute not counted when it lands after the SSD write; Close not
// joining the background legs.
func TestStalledFlushReroutesToPFS(t *testing.T) {
	cases := []struct {
		name        string
		ssdDelay    time.Duration // added to the stalled SSD write's 40 ms
		pfsFails    bool
		rerouted    int64
		pfsState    lifecycle.State // the PFS record's end state; Init: none
		ssdDegraded bool
	}{
		{"reroute-lands-first", time.Second, false, 1, lifecycle.Flushed, true},
		{"ssd-lands-mid-reroute", 80 * time.Millisecond, false, 1, lifecycle.Flushed, false},
		{"reroute-fails", time.Second, true, 0, lifecycle.Init, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(clk *simclock.Virtual) {
				r := newRig(t, clk, func(p *Params) {
					p.Hedge = true
					p.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond,
						MaxBackoff: time.Microsecond, ProbeInterval: -1}
				})
				c := r.client
				for v := ID(0); v < 3; v++ {
					if err := c.Checkpoint(v, pay(MB)); err != nil {
						t.Fatal(err)
					}
					if err := c.WaitFlush(); err != nil {
						t.Fatal(err)
					}
				}
				before := c.Metrics().Snapshot()

				// The next NVMe write stalls; with pfsFails every PFS write fails.
				var legsEnd time.Duration
				stalled := false
				c.p.NVMe.SetInterceptor(func(string, int64) fabric.FaultDecision {
					if stalled {
						return fabric.FaultDecision{}
					}
					stalled = true
					legsEnd = max(legsEnd, clk.Now()+tc.ssdDelay+40*time.Millisecond)
					return fabric.FaultDecision{Delay: tc.ssdDelay}
				})
				c.p.PFS.SetInterceptor(func(string, int64) fabric.FaultDecision {
					if tc.pfsFails {
						return fabric.FaultDecision{Err: errors.New("injected")}
					}
					legsEnd = max(legsEnd, clk.Now()+100*time.Millisecond)
					return fabric.FaultDecision{}
				})
				if err := c.Checkpoint(3, pay(MB)); err != nil {
					t.Fatal(err)
				}
				if err := c.WaitFlush(); err != nil {
					t.Fatalf("flush of the stalled version: %v", err)
				}
				c.Close()
				after := c.Metrics().Snapshot()

				if !stalled {
					t.Fatal("the SSD write was never stalled")
				}
				if now := clk.Now(); now < legsEnd {
					t.Errorf("Close returned at %v, before the last leg ended at %v", now, legsEnd)
				}
				if got := after.StallsDetected - before.StallsDetected; got != 1 {
					t.Errorf("StallsDetected = %d, want 1", got)
				}
				if got := after.StallsRerouted - before.StallsRerouted; got != tc.rerouted {
					t.Errorf("StallsRerouted = %d, want %d", got, tc.rerouted)
				}
				if got := after.Histograms[metrics.HistStallReroute].Count; got != tc.rerouted {
					t.Errorf("stall_reroute samples = %d, want %d", got, tc.rerouted)
				}
				if got := after.DurableBytes - before.DurableBytes; got != MB {
					t.Errorf("durable bytes credited = %d, want %d (one fate)", got, MB)
				}
				if got := after.LostBytes - before.LostBytes; got != 0 {
					t.Errorf("lost bytes credited = %d, want 0", got)
				}
				if err := metrics.CheckInvariants(after); err != nil {
					t.Errorf("metrics invariants: %v", err)
				}

				want := map[Tier]lifecycle.State{
					TierGPU: lifecycle.Flushed, TierHost: lifecycle.Flushed,
					TierSSD: lifecycle.Flushed, TierPFS: tc.pfsState,
				}
				ck := c.ckpts[3]
				for tier, st := range want {
					got := lifecycle.Init
					if rep := ck.replicas[tier]; rep != nil {
						got = rep.fsm.State()
					}
					if got != st {
						t.Errorf("%v record ends %v, want %v", tier, got, st)
					}
				}

				var wantDegraded []Tier
				if tc.ssdDegraded {
					wantDegraded = []Tier{TierSSD}
				}
				if got := c.DegradedTiers(); !slices.Equal(got, wantDegraded) {
					t.Errorf("degraded after the stalled write settled: %v, want %v", got, wantDegraded)
				}
			})
		})
	}
}
