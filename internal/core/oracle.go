package core

import (
	"time"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/trace"
)

// tierOracle is one cache tier's end of the eviction contract: it hands
// the tier's buffer each placed checkpoint's entry (cachebuf.EntrySource)
// and from then on answers nothing — the buffer reads the entry in place,
// and the client rewrites it at every event that changes what it says. Its
// methods run under the buffer's lock and take Client.mu, never the reverse.
type tierOracle struct {
	c    *Client
	tier Tier
	src  cachebuf.Source // this client's queue head and this tier's flush estimate
}

// Entry implements cachebuf.EntrySource.
func (o *tierOracle) Entry(id cachebuf.ID) (*cachebuf.Entry, *cachebuf.Source) {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if ck := o.c.ckpts[ID(id)]; ck != nil {
		return &ck.entries[o.tier], &o.src
	}
	return nil, nil
}

// Evicted removes the replica record when the buffer discards it.
func (o *tierOracle) Evicted(id cachebuf.ID) {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if ck := o.c.ckpts[ID(id)]; ck != nil {
		// No rescore: the buffer erased the fragment because its entry
		// read evictable, which is how an unlinked record reads.
		ck.replicas[o.tier] = nil
		if o.tier == TierHost {
			o.c.releaseStagedLocked(ck)
		}
		o.c.lifecycle(ck.id, trace.LEvicted, o.tier.String(), "")
	}
}

// flushEstimate predicts how long moving size bytes to the next tier will
// take under current link load ("we prefer the checkpoint whose estimated
// flush completion time is the smallest") — the one eviction input a scan
// still computes: it depends on the link's in-flight count at that instant.
func (o *tierOracle) flushEstimate(size int64) time.Duration {
	if o.tier == TierGPU {
		return o.c.p.GPU.PCIeLink().Estimate(size)
	}
	return o.c.p.NVMe.Estimate(size)
}

// rescoreLocked is the eviction rule: it re-derives what each cache tier's
// buffer may do with ck's fragment and publishes it to the entry the buffer
// reads. A replica may be evicted when its life cycle allows it (FLUSHED or
// CONSUMED, Fig. 1) and no data would be lost — a readable copy exists on
// a slower tier, the checkpoint was consumed and is discardable (§2
// condition 5), or its flush was aborted (the fail-open escape hatch:
// evicting loses the checkpoint, Restore reports ErrLost, the cache stays
// live). Until then the p_score input is the paper's state_ts: 0 when
// nothing is pending, the flush estimate when a flush is, pinned when a
// transfer or an unconsumed prefetch holds the replica. WRITE_COMPLETE is
// kept even when discardable: the copy waits for its flush to move it on,
// so a flush skipped under §2 condition 5 ends FLUSHED too (skipFlush),
// and a READ_COMPLETE source is pinned until the read that claimed it
// consumes it (copyFromHost). Every event that
// changes an input calls this in the critical section that makes the change
// — a transition on any tier, a cache record linked or unlinked, consumption,
// an aborted flush — so under c.mu the entries always equal the rule. It is
// also the one place that decides a parked reservation may proceed: a
// write that clears Pinned or Kept marks its tier in c.wake, and the
// critical section's unlockWake sends it.
func (c *Client) rescoreLocked(ck *checkpoint) {
	discardable := (ck.consumed && c.p.DiscardAfterRestore) || ck.flushAborted
	for tier := TierGPU; tier <= TierHost; tier++ {
		var flags cachebuf.Flags // no record: stale fragment, free to reclaim
		if rep := ck.replicas[tier]; rep != nil {
			switch rep.fsm.State() {
			case lifecycle.Flushed, lifecycle.Consumed:
				if !discardable && !ck.durableBelow(tier) {
					flags = cachebuf.Kept | cachebuf.Estimate // the slower copy is still landing
				}
			case lifecycle.WriteComplete:
				flags = cachebuf.Kept
				if !discardable {
					flags |= cachebuf.Estimate
				}
			case lifecycle.ReadComplete:
				// Pinned until consumed (§2 condition 4), unless the
				// §4.1.3 ablation allows thrashing it out.
				if !c.p.NoPinning || !(discardable || ck.durableBelow(tier)) {
					flags = cachebuf.Pinned | cachebuf.Kept
				}
			default: // INIT, WRITE_/READ_IN_PROGRESS: a transfer is in flight
				flags = cachebuf.Pinned | cachebuf.Kept
			}
		}
		if ck.entries[tier].SetFlags(flags) {
			c.wake[tier] = true
		}
	}
}

// unlockWake releases c.mu, then wakes the reservations parked on each
// cache tier a rescore under it unblocked. Every critical section that may
// rescore ends here, except an IfResident claim's (claimForRead), which
// runs under a buffer's lock.
func (c *Client) unlockWake() {
	w := c.wake
	c.wake = [TierHost + 1]bool{}
	c.mu.Unlock()
	if w[TierGPU] {
		c.gpuC.Notify()
		if c.gpuP != nil {
			c.gpuP.Notify()
		}
	}
	if w[TierHost] {
		c.hstC.Notify()
	}
}

// tryTransition moves rep, ck's record on some tier, along an edge of
// Fig. 1 and rescores ck in the same critical section, reporting whether
// the edge was legal; every life-cycle change goes through here,
// mustTransition or claimForRead. The caller holds neither c.mu nor a
// buffer's lock.
func (c *Client) tryTransition(ck *checkpoint, rep *replica, to lifecycle.State) bool {
	c.mu.Lock()
	defer c.unlockWake()
	ok := rep.fsm.TryTo(to)
	if ok {
		c.rescoreLocked(ck)
	}
	return ok
}

// mustTransition is tryTransition where legality holds by construction:
// an illegal edge panics.
func (c *Client) mustTransition(ck *checkpoint, rep *replica, to lifecycle.State) {
	c.mu.Lock()
	defer c.unlockWake()
	rep.fsm.MustTo(to)
	c.rescoreLocked(ck)
}

// claimForRead pins rep READ_COMPLETE (unless it is there already) inside
// an IfResident claim, so the pin is in the entry before the eviction
// re-check that follows can read it, and reports whether rep is pinned (a
// record mid-write is not claimable). The claim holds the buffer's lock,
// so this sends no wake: only the NoPinning ablation can record one here,
// and the claimer's own CONSUMED transition sends it.
func (c *Client) claimForRead(ck *checkpoint, rep *replica) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep.fsm.State() == lifecycle.ReadComplete {
		return true
	}
	ok := rep.fsm.TryTo(lifecycle.ReadComplete)
	if ok {
		c.rescoreLocked(ck)
	}
	return ok
}

// setReplicaLocked links rep as ck's record on tier (nil unlinks), rescored.
// A fresh record only pins; an unlink can unblock, so it runs under
// unlinkReplica's unlockWake.
func (c *Client) setReplicaLocked(ck *checkpoint, tier Tier, rep *replica) {
	ck.replicas[tier] = rep
	c.rescoreLocked(ck)
}

// hintLocked returns the queue position of ck's first pending hint, or
// cachebuf.NoHint; setHintLocked publishes one on both tiers' entries.
func (ck *checkpoint) hintLocked() int { return ck.entries[TierGPU].Hint() }

func (ck *checkpoint) setHintLocked(pos int) {
	for i := range ck.entries {
		ck.entries[i].SetHint(pos)
	}
}

// consumeHintLocked pops ck's first pending hint for a restore and keeps
// the entries' positions true: a pop at the head shifts every distance
// uniformly, which is one store to each tier's queue head; a deviating
// restore cuts the hint out mid-queue, and every first hint behind the cut
// moves down one position. ck's own entry then points at a later duplicate
// hint (re-read schedules), or at none. Caller holds c.mu.
func (c *Client) consumeHintLocked(ck *checkpoint) (deviated bool) {
	at, deviated := c.q.consume(ck.id)
	if at < 0 {
		return false
	}
	for i := at; deviated && i < len(c.q.hints); i++ {
		if o := c.ckpts[c.q.hints[i]]; o != nil && o.hintLocked() == i+1 {
			o.setHintLocked(i)
		}
	}
	// The entry leaves the head position before the head advances, and
	// scans read the head first: no distance reads negative.
	ck.setHintLocked(c.q.firstPending(ck.id))
	for i := range c.oracles {
		c.oracles[i].src.Head.Store(int64(c.q.head))
	}
	return deviated
}
