package core

import (
	"fmt"
	"sync"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/simclock"
	"score/internal/trace"
)

// flusherD2H is one T_D2H worker (§4.3.1): it drains the GPU→host flush
// queue in FIFO order, reserving host cache space (evicting under the
// score policy), copying over PCIe, and promoting the GPU replica to
// FLUSHED so it becomes evictable. Params.FlushStreams workers run this
// loop concurrently; jobs are claimed in FIFO order, and each
// checkpoint's D2H stage still strictly precedes its own H2F handoff.
func (c *Client) flusherD2H() {
	for {
		id, ok := c.popFlushJob(&c.d2hQ, &c.d2hBusy)
		if !ok {
			return // closed
		}
		c.runD2H(id)
		c.finishFlushJob(id, &c.d2hBusy)
	}
}

// flusherH2F is one T_H2F worker: host → node-local SSD (→ PFS when
// persistence is requested).
func (c *Client) flusherH2F() {
	for {
		id, ok := c.popFlushJob(&c.h2fQ, &c.h2fBusy)
		if !ok {
			return
		}
		c.runH2F(id)
		c.finishFlushJob(id, &c.h2fBusy)
	}
}

// popFlushJob blocks for the next queued id; ok=false on close. busy
// counts the pool's in-flight jobs so WaitFlush can tell an empty queue
// from a drained one.
func (c *Client) popFlushJob(q *idFIFO, busy *int) (ID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for q.len() == 0 || c.drainFrozen {
		// A preemption drain freezes the queues: the triage owns the
		// backlog, so workers park here (and exit at close/kill).
		if c.closed || c.killed {
			return 0, false
		}
		c.cond.Wait()
	}
	if c.killed {
		// The rank died with jobs still queued; finishKill sweeps their
		// fates. Don't start work for a dead process.
		return 0, false
	}
	id, _ := q.pop()
	*busy++
	c.inFlight[id]++
	return id, true
}

func (c *Client) finishFlushJob(id ID, busy *int) {
	c.mu.Lock()
	*busy--
	// T_D2H queues a version for T_H2F before finishing its own job, so
	// both stages can own it at once.
	if c.inFlight[id]--; c.inFlight[id] == 0 {
		delete(c.inFlight, id)
	}
	c.bumpLocked()
	c.mu.Unlock()
	// Flush completions change evictability estimates on both tiers.
	c.notifyGPU()
	c.hstC.Notify()
}

// skipFlush implements §2 condition 5: "if a checkpoint was consumed and
// can be discarded, any of its pending flushes ... are not required to
// complete".
func (c *Client) skipFlush(ck *checkpoint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ck.consumed && c.p.DiscardAfterRestore
}

func (c *Client) runD2H(id ID) {
	c.mu.Lock()
	ck := c.ckpts[id]
	c.mu.Unlock()
	if ck == nil {
		return
	}
	if c.skipFlush(ck) {
		c.accountFate(ck, fateDiscarded)
		return
	}
	att := ck.att
	// The interval since the last mark is the wait for a T_D2H worker.
	c.mark(att, metrics.CompQueueD2H)
	start := c.clk.Now()
	defer func() {
		c.rec.ObserveDuration(metrics.HistFlushPrefix+TierGPU.String(), c.clk.Now()-start)
	}()
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackD2H, "flush",
			fmt.Sprintf("flush %d gpu→host", id), c.flowID(id))()
	}
	if c.p.GPUDirectStorage || c.tierDegraded(TierHost) {
		// GPUDirect mode — or a dead host tier: flush GPU → SSD directly
		// (PCIe + NVMe), bypassing the host cache.
		if err := c.directToSSD(ck, true, att); err != nil {
			c.abortFlush(ck, TierGPU, err)
			return
		}
		c.markFlushed(ck, TierGPU)
		return
	}
	// The host tier only becomes usable once pinned registration
	// completes (§4.1.4). Publish the park: a preemption triage with a
	// deadline shorter than the registration claims the job instead of
	// waiting it out.
	c.mu.Lock()
	ck.hostWait = true
	c.bumpLocked()
	c.mu.Unlock()
	c.waitHostReady()
	c.mu.Lock()
	ck.hostWait = false
	claimed := ck.drainClaimed
	c.mu.Unlock()
	if claimed {
		// The drain triage flushed or failed this version open while the
		// worker slept; the decision is made.
		return
	}
	c.mark(att, metrics.CompHostReady)

	c.mu.Lock()
	if ck.dataOn(TierHost) || ck.dataOn(TierSSD) {
		// Already flushed (e.g. by an earlier bypass); just promote
		// the GPU replica.
		c.mu.Unlock()
		c.markFlushed(ck, TierGPU)
		c.enqueueH2F(ck)
		return
	}
	hostRep := &replica{tier: TierHost, fsm: lifecycle.NewMachine(c.clk)}
	c.setReplicaLocked(ck, TierHost, hostRep)
	c.mu.Unlock()

	if _, err := c.hstC.Reserve(c.hostKey(id), ck.size); err != nil {
		c.unlinkReplica(ck, TierHost, hostRep)
		switch err {
		case cachebuf.ErrClosed:
			return
		case cachebuf.ErrTooLarge:
			// Checkpoint larger than the host cache: flush GPU → SSD
			// directly (still via PCIe + NVMe).
			if err := c.directToSSD(ck, true, att); err != nil {
				c.abortFlush(ck, TierGPU, err)
				return
			}
			c.markFlushed(ck, TierGPU)
			return
		default:
			c.fail(fmt.Errorf("core: D2H flush of %d: %w", id, err))
			return
		}
	}
	c.mark(att, metrics.CompHostAdmit)

	c.mustTransition(ck, hostRep, lifecycle.WriteInProgress)
	if c.p.OnDemandAlloc {
		// §4.1.4 ablation: allocate+register pinned host memory for this
		// checkpoint at ~4 GB/s instead of reusing the pre-pinned cache.
		c.p.GPU.AllocPinnedHost(ck.size)
		c.mark(att, metrics.CompAlloc)
	}
	if err := c.copyD2HHost(ck, att); err != nil {
		c.dropReplica(ck, TierHost, hostRep)
		if isShutdownErr(err) {
			// The rank died (or closed) mid-copy: the chain resolves as
			// lost, not as a tier fault.
			c.abortFlush(ck, TierGPU, err)
			return
		}
		// The PCIe hop toward the host cache kept failing: release the
		// reservation, mark the host tier degraded, and try the direct
		// route (which surfaces its own failure if PCIe itself is dead).
		c.degradeTier(TierHost)
		if err := c.directToSSD(ck, true, att); err != nil {
			c.abortFlush(ck, TierGPU, err)
			return
		}
		c.markFlushed(ck, TierGPU)
		return
	}
	c.healTier(TierHost)
	c.mustTransition(ck, hostRep, lifecycle.WriteComplete)
	c.hstC.Notify()

	// Host copy landed: the GPU replica is now redundant → FLUSHED.
	c.markFlushed(ck, TierGPU)
	c.enqueueH2F(ck)
}

func (c *Client) enqueueH2F(ck *checkpoint) {
	c.mu.Lock()
	// A frozen queue belongs to the drain triage; a late D2H landing must
	// not park work the sweep has already passed over.
	enq := !ck.enqueuedH2F && !c.drainFrozen
	if enq {
		ck.enqueuedH2F = true
		c.h2fQ.push(ck.id)
		c.bumpLocked()
	}
	c.mu.Unlock()
	if enq {
		c.lifecycle(ck.id, trace.LFlushEnqueued, "", "h2f")
	}
}

func (c *Client) runH2F(id ID) {
	c.mu.Lock()
	ck := c.ckpts[id]
	c.mu.Unlock()
	if ck == nil {
		return
	}
	if c.skipFlush(ck) {
		c.accountFate(ck, fateDiscarded)
		return
	}
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackH2F, "flush",
			fmt.Sprintf("flush %d host→ssd", id), c.flowID(id))()
	}
	c.mu.Lock()
	hostRep := ck.replicas[TierHost]
	alreadyOnSSD := ck.dataOn(TierSSD)
	c.mu.Unlock()
	if alreadyOnSSD {
		if hostRep != nil {
			c.markFlushed(ck, TierHost)
		}
		return
	}
	if hostRep == nil || !hostRep.hasData() {
		// The host replica vanished (evicted after consumption, or
		// sacrificed after an aborted flush); if the checkpoint has no
		// fate yet the eviction rule guaranteed it was discardable.
		// Nothing to flush from here.
		c.accountFate(ck, fateDiscarded)
		return
	}
	att := ck.att
	// Time since the host copy landed is the wait for a T_H2F worker.
	c.mark(att, metrics.CompQueueH2F)
	start := c.clk.Now()
	defer func() {
		c.rec.ObserveDuration(metrics.HistFlushPrefix+TierHost.String(), c.clk.Now()-start)
	}()
	if err := c.directToSSD(ck, false, att); err != nil {
		c.abortFlush(ck, TierHost, err)
		return
	}
	c.markFlushed(ck, TierHost)
}

// directToSSD writes the checkpoint to the node-local SSD tier (and PFS
// if persistence is enabled). fromGPU additionally charges the PCIe hop.
// On persistent SSD failure the tier is degraded and the flush reroutes
// to the PFS; the returned error is non-nil only when no durable route
// succeeded.
func (c *Client) directToSSD(ck *checkpoint, fromGPU bool, att *attrib) error {
	if c.tierDegraded(TierSSD) {
		return c.routeToPFS(ck, fromGPU, att)
	}
	ssdRep, hasData := c.deepReplica(ck, TierSSD)
	if !hasData {
		c.mustTransition(ck, ssdRep, lifecycle.WriteInProgress)
		c.lifecycle(ck.id, trace.LHopStart, "ssd", "")
		err, rerouted := c.writeSSDGuarded(ck, fromGPU, att, ssdRep)
		if rerouted {
			// The write stalled past its adaptive deadline and the flush
			// went durable on the PFS instead; the SSD leg finalizes
			// itself in the background when (if) it completes.
			return nil
		}
		if err = c.settleSSD(ck, ssdRep, err, ""); err != nil {
			if isShutdownErr(err) {
				return err
			}
			// The SSD route is dead for this checkpoint (settleSSD dropped
			// the half-written replica and degraded the tier so later
			// flushes skip it): reroute to the PFS.
			return c.routeToPFS(ck, fromGPU, att)
		}
	}

	if !c.Draining() {
		// Best-effort breadth legs run only outside a drain: a preemption
		// deadline buys one durable copy per version, not replication (the
		// demotion half of the drain's cancel-or-demote contract). Both
		// are no-ops when the tier already holds the version. Partner-copy
		// replication (SCR/VELOC) keeps the version restorable through a
		// whole-node loss; a PFS failure here loses persistence breadth,
		// not the checkpoint — the SSD already holds the data. The durable
		// attribution is already finished; pass no attrib.
		c.routeToPartner(ck)
		if c.p.PersistToPFS {
			_ = c.routeToPFS(ck, false, nil)
		}
	}
	// The SSD tier is durable for this scenario (it holds a full
	// node's checkpoints, §2): its replica is immediately FLUSHED.
	c.mustTransition(ck, ssdRep, lifecycle.Flushed)
	c.notifyGPU()
	c.hstC.Notify()
	return nil
}

// settleSSD applies the completion rules of an SSD write that returned
// werr, for the foreground flush and for the background finalizer of a
// write that was rerouted around. Only a live process gets credit for a
// durable transition — a kill racing the flush must resolve the chain as
// lost, not durable. On failure the half-written replica is dropped and,
// unless the client is shutting down, the tier degraded; on success the
// tier heals, the replica is WRITE_COMPLETE and the version durable.
func (c *Client) settleSSD(ck *checkpoint, ssdRep *replica, werr error, detail string) error {
	if werr == nil {
		werr = c.killGate()
	}
	if werr != nil {
		c.unlinkReplica(ck, TierSSD, ssdRep)
		if !isShutdownErr(werr) {
			c.degradeTier(TierSSD)
		}
		return werr
	}
	c.healTier(TierSSD)
	c.mustTransition(ck, ssdRep, lifecycle.WriteComplete)
	c.lifecycle(ck.id, trace.LHopEnd, "ssd", detail)
	c.accountFate(ck, fateDurable)
	return nil
}

// writeSSDGuarded runs the SSD write under a stall watchdog when gray-failure
// handling is enabled (Params.Hedge with a PFS configured): the write
// runs in a background task and the caller waits with an adaptive
// deadline (the health estimator's median-with-headroom estimate for
// the SSD class). A write that
// runs past the deadline without failing — a gray stall — is detected
// and the flush re-routes to the PFS; on reroute success the SSD leg is
// abandoned to finish on its own (first durable copy decides the fate —
// accountFate keeps it single) and rerouted=true tells the caller to
// skip the normal SSD completion path. Without hedging this reduces to
// a plain writeDeep call, byte-identical to the seed.
func (c *Client) writeSSDGuarded(ck *checkpoint, fromGPU bool, att *attrib, ssdRep *replica) (err error, rerouted bool) {
	ssd := c.deepOf(TierSSD)
	if !c.p.Hedge || c.deepOf(TierPFS) == nil {
		start := c.clk.Now()
		err := c.writeDeep(ck, fromGPU, ssd, att)
		if err == nil {
			c.observeHealth(ssd, ck.size, c.clk.Now()-start)
		}
		return err, false
	}

	type waitState struct {
		mu        sync.Mutex
		cond      simclock.Cond
		done      bool
		err       error
		abandoned bool
	}
	ws := &waitState{}
	ws.cond = c.clk.NewCond(&ws.mu)
	start := c.clk.Now()
	c.hedgeWG.Add(1)
	c.clk.Go(func() {
		defer c.hedgeWG.Done()
		werr := c.writeDeep(ck, fromGPU, ssd, nil)
		ws.mu.Lock()
		ws.done, ws.err = true, werr
		abandoned := ws.abandoned
		ws.cond.Broadcast()
		ws.mu.Unlock()
		if !abandoned {
			return // the waiter owns the completion path
		}
		// The waiter re-routed and moved on; finalize the SSD leg here
		// with the rules the foreground path would have applied (the fate
		// accounting inside is a no-op: the reroute already decided it).
		if werr == nil {
			c.observeHealth(ssd, ck.size, c.clk.Now()-start)
		}
		if c.settleSSD(ck, ssdRep, werr, "late completion after stall reroute") == nil {
			c.mustTransition(ck, ssdRep, lifecycle.Flushed)
		}
		c.notifyGPU()
		c.hstC.Notify()
	})

	deadline := c.health.deadline("ssd", ck.size)
	ws.mu.Lock()
	for deadline == 0 && !ws.done {
		// The SSD class has no observations yet, so there is nothing to
		// judge a stall against — the estimator has to earn the right to
		// call a write slow. Wait it out undeadlined (cold-start writes
		// would otherwise misfire the guard on the configured floor).
		ws.cond.Wait()
	}
	for !ws.done {
		if wait := start + deadline - c.clk.Now(); wait > 0 {
			ws.cond.WaitTimeout(wait)
			continue
		}
		// Gray stall: the write is past its deadline and still running.
		ws.mu.Unlock()
		c.rec.StallDetected()
		c.lifecycle(ck.id, trace.LStalled, "ssd", fmt.Sprintf("write past its %v deadline", deadline))
		rrStart := c.clk.Now()
		rerr := c.routeToPFS(ck, fromGPU, att)
		ws.mu.Lock()
		if rerr == nil && !ws.done {
			ws.abandoned = true
			c.rec.StallRerouted()
			c.rec.ObserveDuration(metrics.HistStallReroute, c.clk.Now()-rrStart)
			ws.mu.Unlock()
			return nil, true
		}
		if rerr == nil {
			// The write finished while we were re-routing: take the
			// normal completion path after all (the reroute already
			// decided the fate; the foreground accounting is a no-op).
			c.rec.StallRerouted()
			c.rec.ObserveDuration(metrics.HistStallReroute, c.clk.Now()-rrStart)
			break
		}
		// The alternate route failed too: nothing left but to wait the
		// SSD write out and let the normal path decide.
		for !ws.done {
			ws.cond.Wait()
		}
		break
	}
	err = ws.err
	ws.mu.Unlock()
	if err == nil {
		c.observeHealth(ssd, ck.size, c.clk.Now()-start)
		// The background writer carries no attribution; charge the whole
		// guarded window to the SSD transfer component.
		c.mark(att, metrics.CompXferSSD)
	}
	return err, false
}

// routeToPFS flushes ck straight to the PFS tier, bypassing a degraded
// (or bypassed) SSD. fromGPU additionally charges the PCIe hop.
func (c *Client) routeToPFS(ck *checkpoint, fromGPU bool, att *attrib) error {
	pfs := c.deepOf(TierPFS)
	if pfs == nil {
		return fmt.Errorf("%w: ssd tier unavailable and no PFS configured", ErrTierIO)
	}
	pfsRep, hasData := c.deepReplica(ck, TierPFS)
	if hasData {
		return nil
	}
	c.mustTransition(ck, pfsRep, lifecycle.WriteInProgress)
	c.lifecycle(ck.id, trace.LHopStart, "pfs", "")
	xferStart := c.clk.Now()
	err := c.writeDeep(ck, fromGPU, pfs, att)
	if err == nil {
		// Same rule as the SSD route: no durable credit for a process
		// that died mid-flush.
		err = c.killGate()
	}
	if err != nil {
		c.unlinkReplica(ck, TierPFS, pfsRep)
		return err
	}
	c.observeHealth(pfs, ck.size, c.clk.Now()-xferStart)
	c.mustTransition(ck, pfsRep, lifecycle.WriteComplete)
	c.mustTransition(ck, pfsRep, lifecycle.Flushed) // terminal durable tier
	c.lifecycle(ck.id, trace.LHopEnd, "pfs", "")
	c.accountFate(ck, fateDurable)
	c.notifyGPU()
	c.hstC.Notify()
	return nil
}

// routeToPartner stages a replica of ck on the partner node's SSD over
// the inter-node fabric: local NIC → partner NIC → partner NVMe, then a
// durable put to the partner store. Best effort, like the PFS leg of a
// flush — the local SSD already holds the data, so a partner failure
// costs redundancy (and the ability to survive a node loss), not the
// checkpoint. Persistent failures degrade the partner tier; a later
// probe heals it. A no-op without partner-copy configured.
func (c *Client) routeToPartner(ck *checkpoint) {
	partner := c.deepOf(TierPartner)
	if partner == nil || c.tierDegraded(TierPartner) || c.killGate() != nil {
		return
	}
	rep, hasData := c.deepReplica(ck, TierPartner)
	if hasData {
		return
	}
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackH2F, "partner-copy",
			fmt.Sprintf("replicate %d → partner ssd", ck.id), c.flowID(ck.id))()
	}
	c.mustTransition(ck, rep, lifecycle.WriteInProgress)
	xferStart := c.clk.Now()
	err := c.writeDeep(ck, false, partner, nil)
	if err == nil {
		err = c.killGate()
	}
	if err != nil {
		c.unlinkReplica(ck, TierPartner, rep)
		c.rec.PartnerCopyFailure()
		if !isShutdownErr(err) {
			c.degradeTier(TierPartner)
		}
		return
	}
	c.observeHealth(partner, ck.size, c.clk.Now()-xferStart)
	c.mustTransition(ck, rep, lifecycle.WriteComplete)
	c.mustTransition(ck, rep, lifecycle.Flushed) // durable the moment the put lands
	c.healTier(TierPartner)
	c.rec.PartnerCopy(ck.size)
	c.lifecycle(ck.id, trace.LPartnerCopy, "partner", "")
	c.notifyGPU()
	c.hstC.Notify()
}

// abortFlush gives up on making ck durable: every route below srcTier
// failed persistently. The source replica still moves to FLUSHED — a
// deliberate fail-open transition that keeps the cache from wedging
// (Reserve waits for evictable space; a permanently pinned
// WRITE_COMPLETE replica would deadlock every later checkpoint). The
// replica becomes sacrificial: if it is evicted before the failed tiers
// recover, the checkpoint is lost and Restore reports ErrLost
// definitively instead of hanging.
func (c *Client) abortFlush(ck *checkpoint, srcTier Tier, err error) {
	c.mu.Lock()
	ck.flushAborted = true
	if ck.flushErr == nil {
		ck.flushErr = err
	}
	c.rescoreLocked(ck)
	c.bumpLocked()
	c.mu.Unlock()
	c.rec.FlushAbort()
	c.accountFate(ck, fateLost)
	c.markFlushed(ck, srcTier)
	c.notifyGPU()
	c.hstC.Notify()
}

// dropReplica unlinks ck's record rep on a cache tier and releases its
// reservation, waking blocked reservations.
func (c *Client) dropReplica(ck *checkpoint, tier Tier, rep *replica) {
	c.unlinkReplica(ck, tier, rep)
	c.mu.Lock()
	if tier == TierHost {
		c.releaseStagedLocked(ck)
	}
	c.bumpLocked()
	c.mu.Unlock()
	switch tier {
	case TierHost:
		c.hstC.Release(c.hostKey(ck.id))
		c.hstC.Notify()
	case TierGPU:
		if !c.gpuC.Release(cachebuf.ID(ck.id)) && c.gpuP != nil {
			c.gpuP.Release(cachebuf.ID(ck.id))
		}
		c.notifyGPU()
	}
}

// markFlushed moves a tier's replica WRITE_COMPLETE → FLUSHED if it is
// still in WRITE_COMPLETE (a restore may have claimed it to READ_COMPLETE
// in the meantime, which is fine — the shortcut edge of Fig. 1).
func (c *Client) markFlushed(ck *checkpoint, tier Tier) {
	c.mu.Lock()
	rep := ck.replicas[tier]
	c.mu.Unlock()
	if rep == nil {
		return
	}
	if err := c.transition(ck, rep, lifecycle.Flushed); err == nil {
		switch tier {
		case TierGPU:
			c.notifyGPU()
		case TierHost:
			c.hstC.Notify()
		}
	}
}
