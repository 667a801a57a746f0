package core

import (
	"errors"
	"fmt"
	"strings"
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

// drainBacklog writes five 4 MiB versions through a one-worker pipeline:
// the GPU cache holds one, the host cache four, and the SSD lands one per
// 160 ms. It returns with one T_H2F job in flight, the last version's
// T_D2H job parked on host admission, and three host copies not yet
// durable.
func drainBacklog(t *testing.T, clk *simclock.Virtual) *testRig {
	t.Helper()
	r := newRig(t, clk, func(p *Params) { p.FlushStreams = 1 })
	for v := ID(0); v < 5; v++ {
		if err := r.client.Checkpoint(v, pay(4*MB)); err != nil {
			t.Fatalf("Checkpoint(%d): %v", v, err)
		}
	}
	clk.Sleep(time.Millisecond) // T_D2H picks up the last write
	c := r.client
	d2h, h2f := c.d2h.busy, c.h2f.busy
	if d2h != 1 || h2f != 1 {
		t.Fatalf("busy T_D2H %d, T_H2F %d at the notice; want a job in flight in each", d2h, h2f)
	}
	return r
}

// TestDrainFlushesShareTheH2FPool: the triage's flushes run on the T_H2F
// workers, so with one worker a job in flight at the notice delays the
// first drain flush instead of running beside it on the SSD.
func TestDrainFlushesShareTheH2FPool(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := drainBacklog(t, clk)
		c := r.client
		defer c.Close()
		m, err := c.Drain(10 * time.Second)
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if _, _, peak := r.cluster.Nodes[0].NVMe.Stats(); peak != 1 {
			t.Errorf("NVMe peak concurrency %d, want 1: a drain flush ran beside a T_H2F job", peak)
		}
		want := []DrainOutcome{DrainAlreadyDurable, DrainFlushed, DrainFlushed, DrainFlushed, DrainFlushed}
		if len(m.Entries) != len(want) {
			t.Fatalf("manifest has %d entries, want %d: %+v", len(m.Entries), len(want), m.Entries)
		}
		for i, e := range m.Entries {
			if e.Outcome != want[i] || e.Tier != "ssd" {
				t.Errorf("v%d: %v on %q, want %v on ssd", e.Version, e.Outcome, e.Tier, want[i])
			}
		}
		if !m.DeadlineMet {
			t.Errorf("drain missed a 10 s window: %s", m)
		}
	})
}

// TestDrainKilledMidway: a rank killed while drain flushes are still
// queued ends its drain. The workers pop the queued flushes and fail them
// at their first gate, so the round waiting on them returns; every
// version not yet durable is abandoned with the kill as its reason.
func TestDrainKilledMidway(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		c := drainBacklog(t, clk).client
		killer := simclock.NewWaitGroup(clk)
		killer.Add(1)
		clk.Go(func() {
			defer killer.Done()
			clk.Sleep(200 * time.Millisecond)
			c.Kill()
		})
		m, err := c.Drain(10 * time.Second)
		killer.Wait()
		if !errors.Is(err, ErrKilled) {
			t.Errorf("Drain error %v, want ErrKilled", err)
		}
		if !m.Complete() || len(m.Entries) != 5 {
			t.Fatalf("manifest incomplete or short: %+v", m.Entries)
		}
		abandoned := 0
		for _, e := range m.Entries {
			switch e.Outcome {
			case DrainAbandoned:
				abandoned++
				if e.Reason != ErrKilled.Error() {
					t.Errorf("v%d abandoned for %q, want %q", e.Version, e.Reason, ErrKilled.Error())
				}
			case DrainAlreadyDurable, DrainFlushed:
			default:
				t.Errorf("v%d: %v", e.Version, e.Outcome)
			}
		}
		if abandoned < 3 {
			t.Errorf("%d versions abandoned, want the kill to land with flushes queued: %+v", abandoned, m.Entries)
		}
	})
}

// TestDrainClosedMidway: Close joins the flush workers, and the drain's
// flushes run on them, so no manifest entry is decided after Close
// returns.
func TestDrainClosedMidway(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		c := drainBacklog(t, clk).client
		var closedAt time.Duration
		closer := simclock.NewWaitGroup(clk)
		closer.Add(1)
		clk.Go(func() {
			defer closer.Done()
			clk.Sleep(200 * time.Millisecond)
			c.Close()
			closedAt = clk.Now()
		})
		m, err := c.Drain(10 * time.Second)
		closer.Wait()
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Drain error %v, want ErrClosed", err)
		}
		if !m.Complete() || len(m.Entries) != 5 {
			t.Fatalf("manifest incomplete or short: %+v", m.Entries)
		}
		for _, e := range m.Entries {
			if e.At > closedAt {
				t.Errorf("v%d %v at %v, after Close returned at %v", e.Version, e.Outcome, e.At, closedAt)
			}
		}
	})
}

// TestDrainDecidesWithoutFlushing covers the two triage decisions that
// queue no flush: a consumed, discardable version is dropped (§2 condition
// 5), and a version with no durable route — the SSD degraded and no PFS
// configured — is failed open at once, with the route's error as reason.
func TestDrainDecidesWithoutFlushing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*Params)
		prepare func(*Client) error
		want    DrainOutcome
		reason  string
	}{
		{"discard", func(p *Params) { p.DiscardAfterRestore = true },
			func(c *Client) error { _, err := c.Restore(0); return err }, DrainDiscarded, ""},
		{"no durable route", func(p *Params) { p.PFS = nil },
			func(c *Client) error { c.degradeTier(TierSSD); return nil }, DrainAbandoned,
			"ssd tier degraded and no PFS configured"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(clk *simclock.Virtual) {
				c := newRig(t, clk, tc.mutate).client
				defer c.Close()
				if err := c.Checkpoint(0, pay(MB)); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				if err := tc.prepare(c); err != nil {
					t.Fatal(err)
				}
				m, err := c.Drain(10 * time.Second)
				if err != nil {
					t.Fatalf("Drain: %v", err)
				}
				if len(m.Entries) != 1 {
					t.Fatalf("manifest has %d entries, want 1: %+v", len(m.Entries), m.Entries)
				}
				if e := m.Entries[0]; e.Outcome != tc.want || !strings.HasSuffix(e.Reason, tc.reason) {
					t.Errorf("entry %v (reason %q), want %v (reason ending %q)", e.Outcome, e.Reason, tc.want, tc.reason)
				}
			})
		})
	}
}
