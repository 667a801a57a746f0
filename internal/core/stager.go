package core

import (
	"errors"
	"fmt"

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
// The stager walks the restore-order queue with its own cursor, staging
// hinted checkpoints whose data is only on the SSD/PFS into the host
// cache. A byte budget of half the host cache bounds how far ahead it
// runs, so it cannot evict the near-future host-resident checkpoints the
// backward pass is about to read.
func (c *Client) hostStager() {
	if c.p.NoHostStager || c.p.GPUDirectStorage {
		return
	}
	for {
		// Free-space lookup must happen outside c.mu (buffer lock
		// precedes client lock); the value is advisory only. Taking it
		// before the lock keeps the closed check and the park below in
		// one critical section, so Close's broadcast cannot fall between
		// them and leave the stager asleep.
		free := c.hstC.FreeBytes()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		var ck *checkpoint
		if c.started {
			ck = c.nextStageTargetLocked(free)
		}
		if ck == nil {
			c.cond.Wait()
			c.mu.Unlock()
			continue
		}
		ck.stagingHost = true
		seen := c.events
		c.mu.Unlock()

		staged, err := c.stageHinted(ck)

		c.mu.Lock()
		ck.stagingHost = false
		if staged {
			ck.stagedHost = true
			c.stagedBytes += ck.size
			c.bumpLocked()
		} else {
			c.cond.Broadcast() // wake flag-waiters only
		}
		if err != nil && !errors.Is(err, ErrTierIO) && !errors.Is(err, ErrLost) {
			c.mu.Unlock()
			c.fail(err)
			continue
		}
		if !staged {
			// Host cache saturated (or a racing flush materialized the
			// data): wait for real progress before retrying.
			for c.events == seen && !c.closed {
				c.cond.Wait()
			}
		}
		c.mu.Unlock()
	}
}

// nextStageTargetLocked scans the pending hints (within the byte budget)
// for the first checkpoint whose only data is below the host tier AND
// whose staging would improve the host cache: either free space exists,
// or some host-resident checkpoint is needed strictly later than the
// candidate (so the eviction the staging forces trades a farther
// checkpoint for a nearer one). Without the second condition, staging in
// reverse-order shots would evict near-future host residents to make room
// for the always-farther SSD tail — a strict loss.
func (c *Client) nextStageTargetLocked(freeHostBytes int64) *checkpoint {
	budget := c.p.HostCacheSize / 2
	if c.stagedBytes >= budget {
		return nil
	}
	maxResidentDist := c.maxHostResidentDistanceLocked()
	var scanned int64
	for i := 0; ; i++ {
		id, ok := c.q.at(i)
		if !ok {
			return nil
		}
		ck := c.ckpts[id]
		if ck == nil {
			return nil // not written yet; later hints cannot help
		}
		scanned += ck.size
		if scanned > budget {
			return nil // deep enough; stay near the queue head
		}
		if ck.consumed || ck.stagingHost || ck.promoting {
			continue
		}
		if ck.dataOn(TierGPU) || ck.dataOn(TierHost) {
			continue
		}
		if rep := ck.replicas[TierHost]; rep != nil {
			continue // a flush or another promotion is materializing it
		}
		if !ck.durableBelow(TierHost) {
			continue // still being flushed down; the flusher will land it
		}
		if freeHostBytes < ck.size && i >= maxResidentDist {
			// No free room and every host resident is needed sooner
			// than this candidate: staging would only hurt.
			return nil
		}
		return ck
	}
}

// maxHostResidentDistanceLocked returns the largest prefetch distance of
// any unpinned host-resident checkpoint (consumed checkpoints and
// checkpoints without hints count as farthest).
func (c *Client) maxHostResidentDistanceLocked() int {
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
		pos := ck.hintLocked()
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
			fmt.Sprintf("stage %d ssd→host", ck.id), c.flowID(ck.id))()
	}
	c.waitHostReady()
	c.mu.Lock()
	taken := ck.replicas[TierHost] != nil
	c.mu.Unlock()
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
