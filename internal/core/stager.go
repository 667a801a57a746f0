package core

import (
	"errors"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/trace"
)

// hostStager is the SSD→host half of T_PF. The paper's prefetcher works
// on all tiers concurrently (§4.3.1: "prefetches on all tiers: T_PF");
// running the slow NVMe staging ahead of (and overlapped with) the
// host→GPU promotions keeps the SSD link busy during the compute windows
// instead of serializing both hops inside each promotion.
//
// It stages hinted checkpoints whose data is only on the SSD/PFS into the
// host cache, nearest the queue head first. Its search resumes at the
// queue's stager cursor, past the hints already found not to be
// candidates, instead of walking from the head each time it looks for
// work. A byte budget of half the host cache bounds how far down the
// queue it looks, so it cannot evict the near-future host-resident
// checkpoints the backward pass is about to read.
//
// Not started, or with no hint pending, or waiting for progress after a
// failed stage, it parks with WaitFor, so the clock resumes it only once
// that changes. With hints pending but no target it parks with a plain
// Wait: whether a target appears depends on the host cache's free bytes,
// which only a Buffer call reads.
func (c *Client) hostStager() {
	if c.p.NoHostStager || c.p.GPUDirectStorage {
		return
	}
	for {
		// The free-space value is advisory only. Nothing blocks between
		// it, the closed check and the park below, so Close's broadcast
		// cannot fall between them and leave the stager asleep.
		free := c.hstC.FreeBytes()
		if c.closed {
			return
		}
		var ck *checkpoint
		if c.started {
			ck = c.nextStageTarget(free)
		}
		if ck == nil {
			switch {
			case !c.started:
				c.cond.WaitFor(c.startedOrClosed)
			case c.q.pending() == 0:
				c.cond.WaitFor(c.hintPending)
			default:
				c.cond.Wait()
			}
			continue
		}
		ck.stagingHost = true
		c.stSeen = c.events

		staged, err := c.stageHinted(ck)

		ck.stagingHost = false
		c.reopenStage(ck)
		if staged {
			ck.stagedHost = true
			c.stagedBytes += ck.size
			c.bump()
		} else {
			c.cond.Broadcast() // wake flag-waiters only
		}
		if err != nil && !errors.Is(err, ErrTierIO) && !errors.Is(err, ErrLost) {
			c.fail(err)
			continue
		}
		if !staged {
			// Host cache saturated (or a racing flush materialized the
			// data): wait for real progress before retrying.
			c.cond.WaitFor(c.stProgressed)
		}
	}
}

// nextStageTarget searches the pending hints (within the byte
// budget) for the first staging candidate (stageCandidate) whose
// staging would improve the host cache: either free space exists, or some
// host-resident checkpoint is needed strictly later than the candidate (so
// the eviction the staging forces trades a farther checkpoint for a nearer
// one). Without the second condition, staging in reverse-order shots would
// evict near-future host residents to make room for the always-farther SSD
// tail — a strict loss. The search starts at the queue's stager cursor and
// moves it past every hint it finds no candidate; it looks a hint's record
// up once, the first time it reaches the hint.
func (c *Client) nextStageTarget(freeHostBytes int64) *checkpoint {
	budget := c.p.HostCacheSize / 2
	if c.stagedBytes >= budget {
		return nil
	}
	q := &c.q
	for ; q.st < len(q.hints); q.cover() {
		ck := q.hints[q.st].ck
		if ck == nil {
			if ck = c.ckpts[q.hints[q.st].id]; ck == nil {
				return nil // not written yet; later hints cannot help
			}
			q.hints[q.st].ck = ck
		}
		if q.stBytes+ck.size > budget {
			return nil // deep enough; stay near the queue head
		}
		if !c.stageCandidate(ck) {
			continue
		}
		if freeHostBytes < ck.size && q.st-q.head >= c.maxHostResidentDistance() {
			// No free room and every host resident is needed sooner
			// than this candidate: staging would only hurt. Only this
			// case scans the residents, at most once per call.
			return nil
		}
		return ck
	}
	return nil
}

// stageCandidate reports whether the stager may stage ck: unconsumed,
// not being moved, and with its only data below the host tier.
func (c *Client) stageCandidate(ck *checkpoint) bool {
	return !ck.consumed && !ck.stagingHost && !ck.promoting && !ck.dataOn(TierGPU) &&
		ck.replicas[TierHost] == nil && // no copy, and no flush or promotion materializing one
		ck.durableBelow(TierHost) // not still being flushed down; the flusher will land it
}

// reopenStage lowers the stager cursor to ck's first pending hint if
// ck is a staging candidate now. Every change that can make a checkpoint a
// candidate calls it: a GPU or host record evicted (tierOracle.Evicted), a
// flush landing below the host tier (mustTransition), stagingHost or
// promoting cleared. The others need no call: an unlinkReplica that can
// leave a candidate runs under promoting or stagingHost, consumption is
// for good, and an unwritten slot stops the search before the cursor.
func (c *Client) reopenStage(ck *checkpoint) {
	if c.stageCandidate(ck) {
		c.q.reopen(ck.hint())
	}
}

// maxHostResidentDistance returns the largest prefetch distance of
// any unpinned host-resident checkpoint (consumed checkpoints and
// checkpoints without hints count as farthest).
func (c *Client) maxHostResidentDistance() int {
	far := -1
	for _, ck := range c.ckpts {
		rep := ck.replicas[TierHost]
		if rep == nil {
			continue
		}
		st := rep.fsm.State()
		switch st {
		case lifecycle.WriteComplete, lifecycle.Flushed, lifecycle.Consumed:
		default:
			continue // no data, or pinned by a read: not a victim
		}
		pos := ck.hint()
		if ck.consumed || pos == cachebuf.NoHint {
			// Consumed residents are free wins for staging, and "no
			// prefetching hint available" scores as farthest (§4.1.6).
			return cachebuf.GapDistance - 1
		}
		far = max(far, pos-c.q.head)
	}
	return far
}

// stageHinted is the stager's use of stageDeepToHost: what is its own is
// the span, the LStaged ledger entry, leaving alone a checkpoint some
// other task already gave a host record, and not treating a closing
// cache as a failure. Background staging is hidden from the application,
// so it carries no attribution.
func (c *Client) stageHinted(ck *checkpoint) (staged bool, err error) {
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackStage, "prefetch",
			"stage ssd→host", int64(ck.id), c.flowID(ck.id)).End()
	}
	c.waitHostReady()
	taken := ck.replicas[TierHost] != nil
	if taken {
		return false, nil
	}
	staged, err = c.stageDeepToHost(ck, nil)
	if staged {
		c.lifecycle(ck.id, trace.LStaged, "host", "ssd→host")
	}
	if errors.Is(err, ErrClosed) {
		err = nil
	}
	return staged, err
}
