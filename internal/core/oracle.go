package core

import (
	"time"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/trace"
)

// tierOracle adapts the client's replica state to the cachebuf eviction
// policy for one tier. It is invoked under the buffer's lock and may take
// Client.mu (never the reverse — see the lock-ordering note on Client).
type tierOracle struct {
	c    *Client
	tier Tier
}

// Evictable implements cachebuf.Oracle: a replica may be evicted when its
// life cycle allows it (FLUSHED or CONSUMED, Fig. 1) and no data would be
// lost — a readable copy exists on a slower tier, or the checkpoint was
// consumed and is discardable (§2 condition 5).
func (o *tierOracle) Evictable(id cachebuf.ID) bool {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	ck := o.c.ckpts[ID(id)]
	if ck == nil {
		return true // no record: stale fragment, free to reclaim
	}
	rep := ck.replicas[o.tier]
	if rep == nil {
		return true
	}
	st := rep.fsm.State()
	// flushAborted is the fail-open escape hatch: when every durable
	// route failed, the replica is sacrificial — evicting it loses the
	// checkpoint (Restore reports ErrLost) but keeps the cache live.
	safe := ck.durableBelow(o.tier) || (ck.consumed && o.c.p.DiscardAfterRestore) ||
		ck.flushAborted
	if o.c.p.NoPinning && st == lifecycle.ReadComplete && safe {
		// §4.1.3 ablation: without the unified life cycle, a
		// prefetched-but-unconsumed replica may be thrashed out.
		return true
	}
	return st.Evictable() && safe
}

// ScoreFragments implements cachebuf.BatchOracle: one Client.mu acquisition
// and one ckpts lookup per id answer a whole window scan.
func (o *tierOracle) ScoreFragments(ids []cachebuf.ID, out []cachebuf.Score) {
	o.scoreNamespace(-1, ids, out)
}

// scoreNamespace answers, of the keys of a shared host cache, those in
// namespace ns; ns < 0 takes every key as a plain checkpoint id.
func (o *tierOracle) scoreNamespace(ns int64, keys []cachebuf.ID, out []cachebuf.Score) {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	for i, k := range keys {
		if ns < 0 {
			out[i] = o.scoreLocked(ID(k))
		} else if int64(k)>>nsShift == ns {
			out[i] = o.scoreLocked(ID(int64(k) & nsMask))
		}
	}
}

// scoreLocked is the scoring rule. Distance is the s_score input: how far
// id's hint is from the head of the restore-order queue. TimeToEvictable
// is the paper's state_ts estimate: 0 when already evictable; the
// predicted flush completion time when a flush is pending ("we prefer the
// checkpoint whose estimated flush completion time is the smallest based
// on its size and the bandwidth between the cache tiers"); Pinned when a
// read or prefetch holds the replica. Caller holds Client.mu.
func (o *tierOracle) scoreLocked(id ID) cachebuf.Score {
	sc := cachebuf.Score{Distance: o.c.q.distance(id)}
	ck := o.c.ckpts[id]
	if ck == nil || ck.replicas[o.tier] == nil {
		return sc // no record: stale fragment, free to reclaim
	}
	discardable := (ck.consumed && o.c.p.DiscardAfterRestore) || ck.flushAborted
	switch ck.replicas[o.tier].fsm.State() {
	case lifecycle.Flushed, lifecycle.Consumed:
		// Evictable by life cycle; if the slower copy is not ready yet,
		// estimate the remaining flush time.
		if !discardable && !ck.durableBelow(o.tier) {
			sc.TimeToEvictable = o.flushEstimate(ck.size)
		}
	case lifecycle.WriteComplete:
		if !discardable {
			sc.TimeToEvictable = o.flushEstimate(ck.size)
		}
	case lifecycle.ReadComplete:
		// Pinned until consumed (§2 condition 4), unless the §4.1.3
		// ablation allows thrashing.
		sc.Pinned = !(o.c.p.NoPinning && (discardable || ck.durableBelow(o.tier)))
	default:
		// INIT, WRITE_IN_PROGRESS, READ_IN_PROGRESS: pinned — a
		// transfer is in flight.
		sc.Pinned = true
	}
	return sc
}

// TimeToEvictable implements cachebuf.Oracle as a one-element batch.
func (o *tierOracle) TimeToEvictable(id cachebuf.ID) (time.Duration, bool) {
	sc := cachebuf.ScoreOne(o, id)
	return sc.TimeToEvictable, !sc.Pinned
}

// PrefetchDistance implements cachebuf.Oracle as a one-element batch.
func (o *tierOracle) PrefetchDistance(id cachebuf.ID) int {
	return cachebuf.ScoreOne(o, id).Distance
}

// flushEstimate predicts how long moving size bytes to the next tier will
// take under current link load.
func (o *tierOracle) flushEstimate(size int64) time.Duration {
	switch o.tier {
	case TierGPU:
		return o.c.p.GPU.PCIeLink().Estimate(size)
	case TierHost:
		return o.c.p.NVMe.Estimate(size)
	default:
		return 0
	}
}

// Evicted removes the replica record when the buffer discards it.
func (o *tierOracle) Evicted(id cachebuf.ID) {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if ck := o.c.ckpts[ID(id)]; ck != nil {
		ck.replicas[o.tier] = nil
		if o.tier == TierHost {
			o.c.releaseStagedLocked(ck)
		}
		o.c.lifecycle(ck.id, trace.LEvicted, o.tier.String(), "")
	}
}
