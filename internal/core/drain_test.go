package core

import (
	"fmt"
	"testing"
	"time"

	"score/internal/simclock"
)

// TestDrainWaitsForASynchronousFlush: a version too large for the GPU
// cache streams straight down inside its Checkpoint call (§2 condition 4),
// and no tier holds its bytes until the copy lands. A drain that starts
// mid-copy must wait for the writer, not abandon the version its writer
// then lands: the manifest would say "abandoned" and the metrics lost
// while Checkpoint returned nil and Restore served the bytes.
func TestDrainWaitsForASynchronousFlush(t *testing.T) {
	for _, direct := range []bool{false, true} {
		t.Run(fmt.Sprintf("gpudirect=%v", direct), func(t *testing.T) {
			run(t, func(clk *simclock.Virtual) {
				c := newRig(t, clk, func(p *Params) { p.GPUDirectStorage = direct }).client
				defer c.Close()
				var m DrainManifest
				var derr error
				drained := simclock.NewWaitGroup(clk)
				drained.Add(1)
				clk.Go(func() {
					defer drained.Done()
					clk.Sleep(10 * time.Millisecond)
					m, derr = c.Drain(10 * time.Second)
				})
				if err := c.Checkpoint(0, pay(8*MB)); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				drained.Wait()
				if derr != nil {
					t.Fatalf("Drain: %v", derr)
				}
				// GPUDirect lands the version on the SSD inside Checkpoint; the
				// host path lands it on the host and the triage takes it on.
				want := DrainEntry{Version: 0, Size: 8 * MB, Outcome: DrainFlushed, Tier: "ssd"}
				if direct {
					want.Outcome = DrainAlreadyDurable
				}
				if len(m.Entries) != 1 {
					t.Fatalf("manifest has %d entries, want 1: %+v", len(m.Entries), m.Entries)
				}
				if e := m.Entries[0]; e.Outcome != want.Outcome || e.Tier != want.Tier || e.Reason != "" {
					t.Errorf("manifest entry %v/%q (reason %q), want %v/%q", e.Outcome, e.Tier, e.Reason, want.Outcome, want.Tier)
				}
				s := c.Metrics().Snapshot()
				if s.LostBytes != 0 || s.FlushAborts != 0 {
					t.Errorf("LostBytes = %d, FlushAborts = %d; want 0 and 0", s.LostBytes, s.FlushAborts)
				}
				if _, err := c.Restore(0); err != nil {
					t.Errorf("Restore: %v", err)
				}
			})
		})
	}
}
