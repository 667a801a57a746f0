package core

import (
	"testing"
	"time"

	"score/internal/lifecycle"
	"score/internal/payload"
	"score/internal/simclock"
)

// The first two reproducers below pin the wedges ROADMAP filed under "Fix
// first". Both were lost wakeups, and both kill the run the same way: the
// virtual clock finds every task parked in a Cond wait and panics with
// "simclock: deadlock". The third pins the race filed beside them, which
// broke the other half of the contract: a restore that is neither bit-exact
// nor a definitive error about what the run will hold.

// TestCloseRacingTheStagerDoesNotWedge is the cold-restore wedge. The host
// stager used to check c.closed, drop c.mu to read the host cache's free
// bytes, retake it and park without looking at closed again; a Close whose
// broadcast landed in that window left the stager asleep and Close stuck
// joining the daemons. Every restore's consumption wakes the stager, so a
// shot that restores with no compute in between and closes right after
// the last one aims Close at the window; the loop repeats the shot until
// the real scheduler has hit it (within a few thousand shots before the
// fix, on two or more CPUs).
func TestCloseRacingTheStagerDoesNotWedge(t *testing.T) {
	shots := 20000
	if testing.Short() {
		shots = 2000
	}
	const versions = 4
	run(t, func(clk *simclock.Virtual) {
		for shot := 0; shot < shots; shot++ {
			r := newRig(t, clk, nil)
			for v := ID(0); v < versions; v++ {
				if err := r.client.Checkpoint(v, pay(MB)); err != nil {
					t.Fatalf("shot %d: checkpoint %d: %v", shot, v, err)
				}
			}
			if err := r.client.WaitFlush(); err != nil {
				t.Fatalf("shot %d: WaitFlush: %v", shot, err)
			}
			r.client.PrefetchStart()
			for v := ID(versions) - 1; v >= 0; v-- {
				if _, err := r.client.Restore(v); err != nil {
					t.Fatalf("shot %d: restore %d: %v", shot, v, err)
				}
			}
			r.client.Close()
		}
	})
}

// TestUnlinkedRecordReleasesItsWaiter is the wedge the roadmap pinned on
// clock-pro; it is any policy's. A non-blocking promotion publishes a
// fresh INIT GPU record before it tries to reserve cache space (the
// eviction oracle reclaims a reserved fragment that has no record) and
// unlinks it again when the reservation fails. A Restore that read the
// record in between parked on its machine, which nobody would ever move.
// Deterministic white-box form: publish the record, let a Restore park on
// it, unlink it the way reserveForRead's back-out does, and require the
// Restore to finish through the on-demand path instead of deadlocking the
// clock.
func TestUnlinkedRecordReleasesItsWaiter(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.GPUCacheSize = 2 * MB })
		defer r.client.Close()
		c := r.client
		// Three versions through a two-slot GPU cache: version 0 is
		// evicted once durable and lives on the host and the SSD only.
		for v := ID(0); v < 3; v++ {
			if err := c.Checkpoint(v, pay(MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		ck := c.ckpts[0]
		if ck.replicas[TierGPU] != nil {
			c.mu.Unlock()
			t.Fatal("setup: version 0 still has a GPU record; the test needs it evicted")
		}
		// What a promotion does first: publish an INIT record, holding
		// the promoting flag as the prefetcher would.
		rep := &replica{tier: TierGPU, fsm: lifecycle.NewMachine(clk)}
		ck.replicas[TierGPU] = rep
		ck.promoting = true
		c.mu.Unlock()

		restored := simclock.NewWaitGroup(clk)
		restored.Add(1)
		var restoreErr error
		clk.Go(func() {
			defer restored.Done()
			_, restoreErr = c.Restore(0)
		})
		// Let the Restore reach the record and park on it.
		clk.Sleep(1)

		// The reservation failed: back out.
		c.unlinkReplica(ck, TierGPU, rep)
		c.mu.Lock()
		ck.promoting = false
		c.cond.Broadcast()
		c.mu.Unlock()

		restored.Wait()
		if restoreErr != nil {
			t.Fatalf("restore after the record was unlinked: %v", restoreErr)
		}
		if got := c.Metrics().Snapshot().RestoreOps; got != 1 {
			t.Errorf("RestoreOps = %d, want 1", got)
		}
	})
}

// TestRestoreRacingSyncFlushWaits: a version too large for the GPU cache is
// streamed down the tier chain inside Checkpoint (§2 condition 4), and
// until that lands no tier holds its bytes — the GPU record a racing
// Restore parks on is unlinked, not filled. The Restore used to wake from
// the unlink (or arrive just after it), find no holder and report ErrLost
// for bytes about to be durable; it must wait for the flush and restore
// them bit-exact, whether they land in the host cache or go straight to
// the SSD.
func TestRestoreRacingSyncFlushWaits(t *testing.T) {
	for _, tc := range []struct {
		name      string
		hostCache int64
		landsOn   Tier
	}{
		{"through the host cache", 16 * MB, TierHost},
		{"straight to the SSD", 4 * MB, TierSSD},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(clk *simclock.Virtual) {
				r := newRig(t, clk, func(p *Params) { p.HostCacheSize = tc.hostCache })
				defer r.client.Close()
				c := r.client
				data := make([]byte, 6*MB) // GPU cache: 4 MB
				for i := range data {
					data[i] = byte(i * 31)
				}
				in := payload.NewReal(data)

				written := simclock.NewWaitGroup(clk)
				written.Add(1)
				var ckptErr error
				clk.Go(func() {
					defer written.Done()
					ckptErr = c.Checkpoint(0, in)
				})
				// The writer has published the version and is moving its
				// bytes; no replica is readable yet.
				clk.Sleep(time.Millisecond)
				c.mu.Lock()
				ck := c.ckpts[0]
				racing := ck != nil && !ck.dataOn(TierGPU) && !ck.durableBelow(TierGPU)
				c.mu.Unlock()
				if !racing {
					t.Fatal("setup: the synchronous flush is not in flight 1 ms into the Checkpoint")
				}

				out, err := c.Restore(0)
				if err != nil {
					t.Fatalf("restore racing the synchronous flush: %v", err)
				}
				if err := payload.Verify(in, out.Bytes()); err != nil {
					t.Errorf("restored payload: %v", err)
				}
				written.Wait()
				if ckptErr != nil {
					t.Fatalf("checkpoint: %v", ckptErr)
				}
				c.mu.Lock()
				landed := ck.dataOn(tc.landsOn)
				c.mu.Unlock()
				if !landed || c.Metrics().Snapshot().SyncFlushes != 1 {
					t.Errorf("the version did not take the synchronous route onto the %v tier", tc.landsOn)
				}
			})
		})
	}
}
