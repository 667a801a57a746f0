package core

import (
	"errors"
	"fmt"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/trace"
)

// prefetcher is T_PF (§4.3.1): it walks the restore-order queue in hint
// order and promotes each checkpoint up the tier chain ahead of its
// restore. It never blocks inside a cache reservation — it uses
// TryReserve and parks on the client condition variable instead — so a
// cache saturated with pinned (prefetched-but-unconsumed) checkpoints
// throttles prefetching exactly as §2 condition 4 requires, without ever
// deadlocking deviating readers.
func (c *Client) prefetcher() {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return
		}
		if !c.started {
			c.cond.Wait()
			continue
		}
		id, ok := c.q.nextPrefetch()
		if !ok {
			c.cond.Wait()
			continue
		}
		ck := c.ckpts[id]
		if ck == nil {
			// Hinted but not written yet (hints may precede the
			// forward pass entirely, Listing 1): wait for the write.
			c.cond.Wait()
			continue
		}
		if ck.dataOn(TierGPU) || ck.consumed {
			c.q.advancePrefetch()
			continue
		}
		if rep := ck.replicas[TierGPU]; rep != nil {
			// The write (or another promotion) is landing on the GPU
			// right now; wait for it to settle.
			c.cond.Wait()
			continue
		}
		if ck.promoting || ck.writing {
			// A restore is promoting it on demand, or its writer is
			// still streaming it down the chain (§2 condition 4).
			c.cond.Wait()
			continue
		}
		ck.promoting = true
		seen := c.events
		c.mu.Unlock()

		// The prefetcher's own time is hidden from the application by
		// design — no attribution target.
		promoted, err := c.promoteToGPU(ck, nil)

		c.mu.Lock()
		ck.promoting = false
		c.cond.Broadcast() // wake flag-waiters (restores of this ckpt)
		if err != nil {
			if errors.Is(err, ErrTierIO) || errors.Is(err, ErrLost) {
				// Tier trouble is not fatal to the run: skip this hint.
				// The on-demand restore retries with tier fallback and
				// surfaces a definitive error if the data is truly gone.
				c.q.advancePrefetch()
				c.bumpLocked()
				continue
			}
			c.mu.Unlock()
			c.fail(fmt.Errorf("core: prefetch of %d: %w", id, err))
			c.mu.Lock()
			continue
		}
		if promoted {
			c.q.advancePrefetch()
			c.bumpLocked()
			continue
		}
		// The GPU (or host) cache had no immediately evictable window:
		// wait for real progress (a consumption or flush completion),
		// then retry the same hint — prefetching must stay in restore
		// order to respect the pinning discipline. Waiting on the
		// generation counter (not just any broadcast) prevents
		// broadcast ping-pong with the host stager.
		for c.events == seen && !c.closed {
			c.cond.Wait()
		}
	}
}

// promoteOrBypass is the on-demand path taken by Restore when the
// checkpoint is not on the GPU. It first waits out any in-flight
// promotion of the same checkpoint; then attempts a promotion itself; if
// the caches are saturated with pinned fragments it serves the read by
// streaming straight to the application buffer (the deviation penalty
// path). Returns done=true when the read was fully served by the bypass.
func (c *Client) promoteOrBypass(ck *checkpoint, att *attrib) (done bool, err error) {
	c.mu.Lock()
	for ck.promoting || ck.stagingHost || ck.writing {
		// An in-flight promotion or SSD→host stage of this checkpoint
		// will land its data shortly; duplicating the transfer (or
		// bypassing to a direct NVMe read) would waste the bandwidth
		// it is already consuming; a write still in progress has
		// unlinked its GPU record to flush synchronously.
		if c.closed {
			c.mu.Unlock()
			return false, ErrClosed
		}
		c.cond.Wait()
	}
	c.mu.Unlock()
	c.mark(att, metrics.CompPromoteWait)
	c.mu.Lock()
	if ck.dataOn(TierGPU) {
		c.mu.Unlock()
		return false, nil // promoted meanwhile; serve from GPU
	}
	ck.promoting = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		ck.promoting = false
		c.cond.Broadcast()
		c.mu.Unlock()
	}()

	promoted, err := c.promoteToGPU(ck, att)
	if err != nil {
		return false, err
	}
	if promoted {
		return false, nil // now on GPU; caller serves from there
	}

	// Bypass: no cacheable window available. Stream from the fastest
	// tier that has the data directly into the application buffer.
	c.mu.Lock()
	onHost := ck.dataOn(TierHost)
	onDeep := ck.durableBelow(TierHost)
	c.mu.Unlock()
	switch {
	case onHost:
		if err := c.copyH2D(ck, att); err != nil {
			return false, err
		}
	case onDeep:
		// Two hops (deep read + PCIe): fused into one chunked stream
		// when ChunkSize is set.
		if err := c.readDeep(ck, att, true); err != nil {
			return false, err
		}
	default:
		return false, fmt.Errorf("%w: checkpoint %d has no readable replica on any tier%s",
			ErrLost, ck.id, c.lostDetail(ck))
	}
	return true, nil
}

// copyH2D charges the PCIe hop toward the GPU with retries. With
// ChunkSize set the copy holds a copy engine (timing of the single hop
// is unchanged — only engine contention is added).
func (c *Client) copyH2D(ck *checkpoint, att *attrib) error {
	if cs := c.p.ChunkSize; cs > 0 {
		return c.retryIOAttr(ck, att, metrics.CompXferPCIe, "pcie", "H2D copy", func() error {
			st, err := c.p.GPU.TryStreamH2D(nil, ck.size, cs)
			c.observePipeline(trace.TrackPF, "prefetch",
				fmt.Sprintf("promote %d host→gpu", ck.id), c.flowID(ck.id), st, err)
			return err
		})
	}
	return c.retryIOAttr(ck, att, metrics.CompXferPCIe, "pcie", "H2D copy", func() error {
		_, err := c.p.GPU.TryCopyH2D(ck.size)
		return err
	})
}

// lostDetail annotates an ErrLost with the aborted-flush cause, if any.
func (c *Client) lostDetail(ck *checkpoint) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ck.flushAborted && ck.flushErr != nil {
		return fmt.Sprintf(" (flush aborted: %v)", ck.flushErr)
	}
	return ""
}

// promoteToGPU moves ck's data to the GPU cache, staging through the host
// cache when the source is a deep tier. It never blocks inside a cache
// reservation — blocking could deadlock a deviating read behind pinned
// prefetches — and reports "no immediately evictable window" as
// promoted=false.
func (c *Client) promoteToGPU(ck *checkpoint, att *attrib) (promoted bool, err error) {
	start := c.clk.Now()
	defer func() {
		// Only completed promotions that actually moved data feed the
		// latency histogram; instant already-resident hits would skew it.
		if promoted && err == nil {
			if d := c.clk.Now() - start; d > 0 {
				c.rec.ObserveDuration(metrics.HistPrefetch, d)
			}
			c.lifecycle(ck.id, trace.LPrefetched, "gpu", "")
		}
	}()
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackPF, "prefetch",
			fmt.Sprintf("promote %d →gpu", ck.id), c.flowID(ck.id))()
	}
	// Stage 1: ensure the data is on the host tier.
	c.mu.Lock()
	onHost := ck.dataOn(TierHost)
	onLower := ck.durableBelow(TierHost)
	c.mu.Unlock()

	if !onHost && c.p.GPUDirectStorage && onLower {
		// Future-work mode: promote SSD → GPU directly. The NVMe read
		// and the PCIe hop are both charged; no host copy appears.
		return c.promoteDirect(ck, att)
	}
	if !onHost {
		if !onLower {
			// Data only on the GPU (or nowhere): if a GPU replica
			// exists it is either readable or a write is landing —
			// either way there is nothing to promote from below.
			c.mu.Lock()
			gpuRep := ck.replicas[TierGPU]
			onGPU := ck.dataOn(TierGPU)
			c.mu.Unlock()
			if onGPU {
				return true, nil
			}
			if gpuRep != nil {
				return false, nil // write in flight; retry after it lands
			}
			return false, fmt.Errorf("%w: checkpoint %d: no replica holds data%s",
				ErrLost, ck.id, c.lostDetail(ck))
		}
		ok, err := c.stageDeepToHost(ck, att)
		if err != nil || !ok {
			return false, err
		}
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}

	// Stage 2: host → GPU.
	c.waitHostReady()
	c.mark(att, metrics.CompHostReady)
	gpuRep, reserved, err := c.reserveForRead(ck, TierGPU)
	if !reserved {
		return gpuRep != nil, err
	}

	// Pin the host source replica (READ_COMPLETE) while copying up, then
	// consume it ("the checkpoint is copied to the reserved space on the
	// faster tier and marked Read Completed, while the original is
	// marked Read Consumed", §4.3.2).
	hostRep := c.claimSource(ck, TierHost)

	c.mustTransition(ck, gpuRep, lifecycle.ReadInProgress)
	cpErr := c.copyH2D(ck, att)
	if cpErr != nil {
		// The upward copy kept failing: release the GPU reservation.
		// The pinned host source keeps the data (Consumed is readable
		// and, being durable below, evictable), so nothing is lost.
		c.dropReplica(ck, TierGPU, gpuRep)
	} else {
		c.mustTransition(ck, gpuRep, lifecycle.ReadComplete)
		c.notifyGPU()
	}

	if hostRep != nil {
		if err := c.transition(ck, hostRep, lifecycle.Consumed); err == nil {
			c.hstC.Notify()
		}
	}
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
	return cpErr == nil, cpErr
}

// promoteDirect is the GPUDirect promotion path: SSD → GPU without a
// host replica. promoted=false means the GPU cache had no immediately
// evictable window.
func (c *Client) promoteDirect(ck *checkpoint, att *attrib) (promoted bool, err error) {
	gpuRep, reserved, err := c.reserveForRead(ck, TierGPU)
	if !reserved {
		return gpuRep != nil, err
	}
	c.mustTransition(ck, gpuRep, lifecycle.ReadInProgress)
	// Deep read + PCIe hop of the direct path; one chunked stream when
	// ChunkSize is set.
	err = c.readDeep(ck, att, true)
	if err != nil {
		c.dropReplica(ck, TierGPU, gpuRep)
	} else {
		c.mustTransition(ck, gpuRep, lifecycle.ReadComplete)
		c.notifyGPU()
		c.mu.Lock()
		c.bumpLocked()
		c.mu.Unlock()
	}
	return err == nil, err
}

// reserveForRead claims room on a cache tier (GPU or host) for a copy of
// ck about to be read up from below, without ever blocking. The INIT
// record is published before the reservation, as it must be: the entry the
// buffer picks up as it places the fragment must already read pinned, not
// stale. reserved=true hands the caller a fresh record and its
// reservation; it must land the data or unlink the record. Otherwise rep
// is non-nil exactly when the tier already holds a readable copy, and
// nil when there is no immediately evictable window (or another task is
// materializing the replica) — or the cache closed, which is ErrClosed.
func (c *Client) reserveForRead(ck *checkpoint, tier Tier) (rep *replica, reserved bool, err error) {
	buf, key := c.prefetchBuf(), cachebuf.ID(ck.id)
	if tier == TierHost {
		buf, key = c.hstC, c.hostKey(ck.id)
	}
	c.mu.Lock()
	if rep = ck.replicas[tier]; rep != nil {
		c.mu.Unlock()
		if rep.hasData() {
			return rep, false, nil
		}
		return nil, false, nil
	}
	rep = &replica{tier: tier, fsm: lifecycle.NewMachine(c.clk)}
	c.setReplicaLocked(ck, tier, rep)
	c.mu.Unlock()

	if _, err = buf.TryReserve(key, ck.size); err == nil {
		return rep, true, nil
	}
	c.unlinkReplica(ck, tier, rep)
	switch err {
	case cachebuf.ErrWouldBlock, cachebuf.ErrTooLarge, cachebuf.ErrDuplicate:
		err = nil
	case cachebuf.ErrClosed:
		err = ErrClosed
	}
	return nil, false, err
}

// stageDeepToHost copies ck from the fastest deep tier that serves it
// into the host cache (non-blocking reservation) — the SSD→host hop of
// both the on-demand promotion and the host stager. ok=false means the
// host cache had no immediately evictable window.
func (c *Client) stageDeepToHost(ck *checkpoint, att *attrib) (ok bool, err error) {
	c.waitHostReady()
	c.mark(att, metrics.CompHostReady)
	hostRep, reserved, err := c.reserveForRead(ck, TierHost)
	if !reserved {
		return hostRep != nil, err
	}
	c.mustTransition(ck, hostRep, lifecycle.ReadInProgress)
	if err := c.readDeep(ck, att, false); err != nil {
		// Tier I/O trouble: undo the reservation; the caller (or the
		// on-demand path, with its own fallback) owns ck from here.
		c.unlinkReplica(ck, TierHost, hostRep)
		c.hstC.Release(c.hostKey(ck.id))
		c.hstC.Notify()
		return false, err
	}
	c.mustTransition(ck, hostRep, lifecycle.ReadComplete)
	c.hstC.Notify()
	return true, nil
}

// claimSource pins tier's replica in READ_COMPLETE under the buffer lock
// so eviction cannot take it while we copy from it. Returns nil when the
// replica is not resident (e.g. the data also lives on the SSD and the
// host copy was evicted mid-flight — the copy then proceeds from DRAM
// semantics-wise; timing is unaffected since the transfer was already
// charged).
func (c *Client) claimSource(ck *checkpoint, tier Tier) *replica {
	type target struct {
		buf *cachebuf.Buffer
		key cachebuf.ID
	}
	targets := []target{{c.hstC, c.hostKey(ck.id)}}
	if tier == TierGPU {
		targets = []target{{c.gpuC, cachebuf.ID(ck.id)}}
		if c.gpuP != nil {
			targets = append(targets, target{c.gpuP, cachebuf.ID(ck.id)})
		}
	}
	c.mu.Lock()
	rep := ck.replicas[tier]
	c.mu.Unlock()
	if rep == nil {
		return nil
	}
	claim := func() {
		if rep.fsm.State() != lifecycle.ReadComplete {
			if err := c.transition(ck, rep, lifecycle.ReadComplete); err != nil {
				rep = nil // not claimable (mid-write); treat as absent
			}
		}
	}
	for _, tg := range targets {
		if tg.buf.IfResident(tg.key, claim) {
			return rep
		}
	}
	return nil
}
