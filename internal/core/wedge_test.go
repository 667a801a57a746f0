package core

import (
	"testing"
	"time"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/payload"
	"score/internal/simclock"
)

// The first two reproducers below pin the wedges ROADMAP filed under "Fix
// first". Both were lost wakeups, and both kill the run the same way: the
// virtual clock finds every task parked in a Cond wait and panics with
// "simclock: deadlock". The third pins the race filed beside them, which
// broke the other half of the contract: a restore that is neither bit-exact
// nor a definitive error about what the run will hold. The last two pin
// host copies the run was done with but the eviction rule still kept or
// pinned; both deadlocked the clock the same way, on the next blocking
// reservation that needed their room.

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

// TestUnlinkedRecordReleasesItsWaiter pins a wedge that any eviction
// policy can reach. A non-blocking promotion publishes a
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
		ck := c.ckpts[0]
		if ck.replicas[TierGPU] != nil {
			t.Fatal("setup: version 0 still has a GPU record; the test needs it evicted")
		}
		// What a promotion does first: publish an INIT record, holding
		// the promoting flag as the prefetcher would.
		rep := c.newReplica(TierGPU)
		ck.replicas[TierGPU] = rep
		ck.promoting = true

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
		ck.promoting = false
		c.cond.Broadcast()

		restored.Wait()
		if restoreErr != nil {
			t.Fatalf("restore after the record was unlinked: %v", restoreErr)
		}
		if got := c.Metrics().Snapshot().RestoreOps; got != 1 {
			t.Errorf("RestoreOps = %d, want 1", got)
		}
	})
}

// TestSlabSlotsAreNeverReused: replica records are cut from a per-client
// slab, and no slot is handed out twice. A record is unlinked and a new
// one published for the same tier: the two must be distinct, abandoning
// the old one must not release a waiter parked on the new one, and an
// unlink with the stale pointer must leave the new record in place.
func TestSlabSlotsAreNeverReused(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		c := r.client
		ck := &checkpoint{id: 9, size: MB, pay: pay(MB)}
		old, _ := c.deepReplica(ck, TierSSD)
		c.unlinkReplica(ck, TierSSD, old)
		rep, _ := c.deepReplica(ck, TierSSD)
		if rep == old {
			t.Fatal("the record published after an unlink reuses the unlinked one's slot")
		}

		var woke bool
		var state lifecycle.State
		clk.Go(func() {
			state = rep.fsm.WaitFor(lifecycle.WriteComplete)
			woke = true
		})
		clk.Sleep(1)
		old.fsm.Abandon()
		clk.Sleep(1)
		if woke {
			t.Fatalf("abandoning the unlinked record released a waiter on its successor (in %v)", state)
		}
		c.unlinkReplica(ck, TierSSD, old)
		clk.Sleep(1)
		cur := ck.replicas[TierSSD]
		if cur != rep {
			t.Fatal("unlinkReplica with the stale pointer dropped the new record")
		}
		if woke {
			t.Fatalf("unlinkReplica with the stale pointer released a waiter on the new record (in %v)", state)
		}

		rep.fsm.MustTo(lifecycle.WriteInProgress)
		rep.fsm.MustTo(lifecycle.WriteComplete)
		clk.Sleep(1)
		if !woke || state != lifecycle.WriteComplete {
			t.Fatalf("the waiter on the new record did not see it land (woke %v, in %v)", woke, state)
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
				ck := c.ckpts[0]
				racing := ck != nil && !ck.dataOn(TierGPU) && !ck.durableBelow(TierGPU)
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
				landed := ck.dataOn(tc.landsOn)
				if !landed || c.Metrics().Snapshot().SyncFlushes != 1 {
					t.Errorf("the version did not take the synchronous route onto the %v tier", tc.landsOn)
				}
			})
		})
	}
}

// requireReclaimable fails t if any consumed version's GPU or host entry
// still reads Kept or Pinned: once the run is done with a version and its
// flushes have drained, neither cache may hold its space back.
func requireReclaimable(t *testing.T, c *Client) {
	t.Helper()
	for id, ck := range c.ckpts {
		if !ck.consumed {
			continue
		}
		for tier := TierGPU; tier <= TierHost; tier++ {
			if f := ck.entries[tier].Flags(); f&(cachebuf.Kept|cachebuf.Pinned) != 0 {
				state := "no record"
				if rep := ck.replicas[tier]; rep != nil {
					state = rep.fsm.State().String()
				}
				t.Errorf("consumed version %d, %v tier (%s): entry flags %03b, want neither Kept nor Pinned", id, tier, state, f)
			}
		}
	}
}

// TestSkippedFlushReleasesItsHostCopy: under DiscardAfterRestore a version
// consumed while its host copy awaits T_H2F skips that flush (§2 condition
// 5). The skip used to return before the host record left WRITE_COMPLETE,
// which the eviction rule keeps: the host cache lost that version's room
// for the rest of the run, and the next writes that needed it waited
// forever. One T_H2F worker and a host cache of exactly n versions: n
// writes, all restored while the first one's flush still holds the worker,
// then n more writes.
func TestSkippedFlushReleasesItsHostCopy(t *testing.T) {
	const n = 4
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) {
			p.DiscardAfterRestore, p.FlushStreams = true, 1
			p.HostCacheSize = n * MB
		})
		defer r.client.Close()
		c := r.client
		for v := ID(0); v < n; v++ {
			if err := c.Checkpoint(v, pay(MB)); err != nil {
				t.Fatal(err)
			}
		}
		// T_D2H lands one copy every 10 ms; T_H2F needs 40 ms for each.
		for landed := false; !landed; {
			clk.Sleep(time.Millisecond)
			landed = c.ckpts[n-1].dataOn(TierHost)
		}
		queued := c.h2f.q.Len()
		if queued != n-1 {
			t.Fatalf("setup: %d host copies await T_H2F, want %d", queued, n-1)
		}
		for v := ID(0); v < n; v++ {
			if _, err := c.Restore(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		for v := ID(n); v < 2*n; v++ {
			if err := c.Checkpoint(v, pay(MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		requireReclaimable(t, c)
	})
}

// TestHostBypassConsumesItsSource: a version larger than the GPU cache is
// restored by staging it from the SSD into the host cache and bypassing
// the GPU from there. The bypass used to copy from the staged host copy
// without claiming or consuming it, so the copy stayed READ_COMPLETE —
// pinned for good — and a later blocking host reservation that needed its
// room waited forever.
func TestHostBypassConsumesItsSource(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.HostCacheSize = 8 * MB })
		defer r.client.Close()
		c := r.client
		// Two 6 MB versions (GPU cache: 4 MB) through an 8 MB host cache:
		// the second one's landing evicts the first, which then lives on
		// the SSD only.
		for v := ID(0); v < 2; v++ {
			if err := c.Checkpoint(v, pay(6*MB)); err != nil {
				t.Fatal(err)
			}
			if err := c.WaitFlush(); err != nil {
				t.Fatal(err)
			}
		}
		evicted := c.ckpts[0].replicas[TierHost] == nil
		if !evicted {
			t.Fatal("setup: version 0 is still in the host cache")
		}
		if _, err := c.Restore(0); err != nil {
			t.Fatal(err)
		}
		bypassed := c.ckpts[0].replicas[TierGPU] == nil && c.ckpts[0].dataOn(TierHost)
		if !bypassed {
			t.Fatal("setup: the restore of version 0 was not served by the bypass from a staged host copy")
		}
		// A third 6 MB version lands through the host cache with a
		// blocking reservation; only version 0's staged copy can make room.
		if err := c.Checkpoint(2, pay(6*MB)); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		requireReclaimable(t, c)
	})
}
