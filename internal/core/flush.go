package core

import (
	"fmt"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/simclock"
	"score/internal/slab"
	"score/internal/trace"
)

// flusher is one worker of a flusher stage pool (§4.3.1): T_D2H runs
// runD2H (GPU → host cache, promoting the GPU replica to FLUSHED so it
// becomes evictable), T_H2F runs runH2F (host → node-local SSD, → PFS
// when persistence is requested). Params.FlushStreams workers run each
// pool's loop concurrently; jobs are claimed in FIFO order, and each
// checkpoint's D2H stage still strictly precedes its own H2F handoff.
// A preemption drain's flushes are T_H2F jobs too (runH2F).
func (c *Client) flusher(p *flushPool, run func(ID)) {
	for {
		id, ok := c.popFlushJob(p)
		if !ok {
			return // closed
		}
		run(id)
		c.finishFlushJob(id, p)
	}
}

// The flush-latency histograms of the T_D2H and T_H2F stages, by source tier.
var (
	histFlushGPU  = metrics.HistFlushPrefix + TierGPU.String()
	histFlushHost = metrics.HistFlushPrefix + TierHost.String()
)

// flushPool is one flusher stage: its FIFO, its in-flight job count (so
// WaitFlush can tell an empty queue from a drained one) and the cond its
// idle workers park on. An idle worker's
// predicate changes only when its queue grows (push signals one worker)
// or when the client closes or dies (releaseFlushers wakes all); a
// drain's notice only empties the queues, and its triage then pushes its
// admitted flushes onto the T_H2F queue like any other job.
type flushPool struct {
	q    slab.Queue[ID]
	busy int
	cond simclock.Cond
}

// push queues id and wakes one idle worker.
func (p *flushPool) push(id ID) {
	p.q.Push(id)
	p.cond.Signal()
}

// releaseFlushers wakes every idle flush worker of both pools so it
// observes closed or killed.
func (c *Client) releaseFlushers() {
	c.d2h.cond.Broadcast()
	c.h2f.cond.Broadcast()
}

// popFlushJob blocks for the next id queued on p; ok=false on close.
func (c *Client) popFlushJob(p *flushPool) (ID, bool) {
	for p.q.Len() == 0 {
		if c.closed || c.killed {
			return 0, false
		}
		p.cond.Wait()
	}
	if c.killed && c.drain == nil {
		// The rank died with jobs still queued; finishKill sweeps their
		// fates. A drain's queued flushes still run, to fail at their
		// first gate: the triage's round waits for them.
		return 0, false
	}
	id, _ := p.q.Pop()
	p.busy++
	c.inFlight[id]++
	return id, true
}

func (c *Client) finishFlushJob(id ID, p *flushPool) {
	p.busy--
	// T_D2H queues a version for T_H2F before finishing its own job, so
	// both stages can own it at once.
	if c.inFlight[id]--; c.inFlight[id] == 0 {
		delete(c.inFlight, id)
	}
	c.bump()
}

// skipFlush implements §2 condition 5: "if a checkpoint was consumed and
// can be discarded, any of its pending flushes ... are not required to
// complete". A skipped T_H2F still ends its host copy FLUSHED, as a
// finished one would: WRITE_COMPLETE is kept by the eviction rule, and
// nothing else would ever move the copy on, so the host cache would hold
// its room for the rest of the run.
func (c *Client) skipFlush(ck *checkpoint) bool {
	return ck.consumed && c.p.DiscardAfterRestore
}

func (c *Client) runD2H(id ID) {
	ck := c.ckpts[id]
	if ck == nil {
		return
	}
	if c.skipFlush(ck) {
		c.accountFate(ck, fateDiscarded)
		return
	}
	att := ck.att
	// The interval since the last mark is the wait for a T_D2H worker.
	c.mark(att, metrics.QueueD2H)
	start := c.clk.Now()
	defer func() {
		c.rec.ObserveDuration(histFlushGPU, c.clk.Now()-start)
	}()
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackD2H, "flush",
			"flush gpu→host", int64(id), c.flowID(id)).End()
	}
	if !c.p.GPUDirectStorage && !c.tierDegraded(TierHost) {
		// The host tier only becomes usable once pinned registration
		// completes (§4.1.4). Publish the park: a preemption triage with a
		// deadline shorter than the registration claims the job instead of
		// waiting it out.
		ck.hostWait = true
		c.bump()
		c.waitHostReady()
		ck.hostWait = false
		claimed := ck.drainClaimed
		if claimed {
			// The drain triage flushed or failed this version open while the
			// worker slept; the decision is made.
			return
		}
		c.mark(att, metrics.HostReady)
		landing, err := c.landOnHost(ck, att)
		switch {
		case landing == hostLanded:
			// The GPU replica is now redundant → FLUSHED.
			c.markFlushed(ck, TierGPU)
			c.enqueueH2F(ck)
			return
		case landing == hostClosed:
			return
		case landing == hostDied:
			// The chain resolves as lost, not as a tier fault.
			c.abortFlush(ck, TierGPU, err)
			return
		case err != nil:
			c.fail(fmt.Errorf("core: D2H flush of %d: %w", id, err))
			return
		}
	}
	// GPUDirect mode, a dead host tier or a bypassed host cache: flush
	// GPU → durable directly (PCIe + NVMe), which surfaces its own failure
	// if PCIe itself is dead.
	if err := c.flushDeep(ck, true, att); err != nil {
		c.abortFlush(ck, TierGPU, err)
		return
	}
	c.markFlushed(ck, TierGPU)
}

// hostLanding is how landOnHost's GPU→host step ended.
type hostLanding int

const (
	hostLanded   hostLanding = iota // the copy landed, or the host or SSD already held the version
	hostBypassed                    // too large, or the copy kept failing (host degraded): go deep
	hostClosed                      // the host cache closed under the reservation
	hostDied                        // the rank died (or closed) mid-copy
)

// landOnHost is the one GPU→host step of the flush chain, shared by T_D2H
// and the synchronous flush: it publishes ck's host record, makes the
// blocking host-cache reservation (evicting under the score policy),
// copies over PCIe and sets the record WRITE_COMPLETE. The error is the
// copy's on hostDied, and a reservation error other than too-large or
// closed on hostBypassed; nil otherwise.
func (c *Client) landOnHost(ck *checkpoint, att *attrib) (hostLanding, error) {
	if ck.dataOn(TierHost) || ck.dataOn(TierSSD) {
		return hostLanded, nil
	}
	hostRep := c.newReplica(TierHost)
	c.setReplica(ck, TierHost, hostRep)

	if _, err := c.hstC.Reserve(c.hostKey(ck.id), ck.size); err != nil {
		c.unlinkReplica(ck, TierHost, hostRep)
		switch err {
		case cachebuf.ErrClosed:
			return hostClosed, nil
		case cachebuf.ErrTooLarge:
			return hostBypassed, nil
		}
		return hostBypassed, err
	}
	c.mark(att, metrics.HostAdmit)

	c.mustTransition(ck, hostRep, lifecycle.WriteInProgress)
	if c.p.OnDemandAlloc {
		// §4.1.4 ablation: allocate+register pinned host memory for this
		// checkpoint at ~4 GB/s instead of reusing the pre-pinned cache.
		c.p.GPU.AllocPinnedHost(ck.size)
		c.mark(att, metrics.Alloc)
	}
	if err := c.copyD2HHost(ck, att); err != nil {
		// Release the reservation. A dying client skips the degradation:
		// that is a shutdown, not a tier fault.
		c.dropReplica(ck, TierHost, hostRep)
		if isShutdownErr(err) {
			return hostDied, err
		}
		c.degradeTier(TierHost)
		return hostBypassed, nil
	}
	c.healTier(TierHost)
	c.mustTransition(ck, hostRep, lifecycle.WriteComplete)
	return hostLanded, nil
}

func (c *Client) enqueueH2F(ck *checkpoint) {
	// After a drain's notice the triage owns the version: a late D2H
	// landing queues nothing, and the next round takes the host copy.
	enq := !ck.enqueuedH2F && c.drain == nil
	if enq {
		ck.enqueuedH2F = true
		c.h2f.push(ck.id)
		c.bump()
	}
	if enq {
		c.lifecycle(ck.id, trace.LFlushEnqueued, "", "h2f")
	}
}

func (c *Client) runH2F(id ID) {
	ck := c.ckpts[id]
	draining := c.drain != nil
	if ck == nil {
		return
	}
	if draining { // only the triage queues jobs after a drain's notice
		c.drainFlush(ck)
		return
	}
	if c.skipFlush(ck) {
		c.markFlushed(ck, TierHost)
		c.accountFate(ck, fateDiscarded)
		return
	}
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackH2F, "flush",
			"flush host→ssd", int64(id), c.flowID(id)).End()
	}
	hostRep := ck.replicas[TierHost]
	alreadyOnSSD := ck.dataOn(TierSSD)
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
	c.mark(att, metrics.QueueH2F)
	start := c.clk.Now()
	defer func() {
		c.rec.ObserveDuration(histFlushHost, c.clk.Now()-start)
	}()
	if err := c.flushDeep(ck, false, att); err != nil {
		c.abortFlush(ck, TierHost, err)
		return
	}
	c.markFlushed(ck, TierHost)
}

// flushDeep lands ck on its first durable tier: the node-local SSD, or
// the PFS when the SSD is degraded or its write fails for a reason other
// than shutdown (the failure degrades the SSD, so later flushes skip it).
// With gray-failure handling (Params.Hedge) and a PFS configured, the SSD
// write and its fall-through are one deadline race (raceDurable).
// fromGPU additionally charges the PCIe hop. The error is non-nil only
// when no durable route succeeded.
func (c *Client) flushDeep(ck *checkpoint, fromGPU bool, att *attrib) error {
	pfs := c.deepOf(TierPFS)
	if !c.tierDegraded(TierSSD) {
		if c.p.Hedge && pfs != nil {
			return c.raceDurable(ck, []*deepTier{c.deepOf(TierSSD), pfs}, fromGPU, att)
		}
		err := c.landDurable(ck, c.deepOf(TierSSD), fromGPU, att)
		if err == nil || isShutdownErr(err) {
			return err
		}
	}
	if pfs == nil {
		return fmt.Errorf("%w: ssd tier unavailable and no PFS configured", ErrTierIO)
	}
	return c.landDurable(ck, pfs, fromGPU, att)
}

// landDurable writes ck onto the durable tier d — the SSD or the PFS row —
// and makes its replica FLUSHED. A PFS that already holds the version, or
// that a stalled flush's reroute is still writing, is left as it is.
func (c *Client) landDurable(ck *checkpoint, d *deepTier, fromGPU bool, att *attrib) error {
	rep, hasData := c.deepReplica(ck, d.tier)
	if d.tier != TierSSD && rep.fsm.State() != lifecycle.Init {
		return nil
	}
	if !hasData {
		c.mustTransition(ck, rep, lifecycle.WriteInProgress)
		c.lifecycle(ck.id, trace.LHopStart, d.label, "")
		start := c.clk.Now()
		err := c.writeDeep(ck, fromGPU, d, att)
		if err == nil {
			c.observeHealth(d, ck.size, c.clk.Now()-start)
		}
		if err = c.settleDeep(ck, d, rep, err, ""); err != nil {
			return err
		}
	}
	c.flushedDeep(ck, d, rep)
	return nil
}

// raceDurable is flushDeep's route under gray-failure handling: a deadline
// race over the SSD and PFS rows. The PFS leg launches when the SSD write
// fails, or stalls past its deadline without failing. The first row to
// land is settled here as landDurable settles it; a leg that fails backs
// out its record where it fails, and one that lands after the decision
// settles itself in the background (its fate credit is then a no-op).
func (c *Client) raceDurable(ck *checkpoint, rows []*deepTier, fromGPU bool, att *attrib) error {
	var reps [TierPFS + 1]*replica
	// land settles leg l's landed write. A reroute that lands counts
	// whether or not it won: the version is durable on the PFS either way.
	land := func(l *raceLeg, detail string) error {
		c.observeHealth(l.deepTier, ck.size, c.clk.Now()-l.start)
		err := c.settleDeep(ck, l.deepTier, reps[l.tier], nil, detail)
		if err == nil && l.hedged {
			c.rec.StallRerouted()
			c.rec.ObserveDuration(metrics.HistStallReroute, c.clk.Now()-l.start)
		}
		return err
	}
	w, err := c.hedgeRace(ck, att, rows, raceDir{
		open: func(l *raceLeg) {
			reps[l.tier], _ = c.deepReplica(ck, l.tier)
			c.mustTransition(ck, reps[l.tier], lifecycle.WriteInProgress)
			c.lifecycle(ck.id, trace.LHopStart, l.label, "")
		},
		run: func(l *raceLeg) error {
			err := c.writeDeep(ck, fromGPU, l.deepTier, nil)
			if err != nil {
				c.settleDeep(ck, l.deepTier, reps[l.tier], err, "")
			}
			return err
		},
		late: func(l *raceLeg) {
			if land(l, "late completion after stall reroute") == nil {
				c.mustTransition(ck, reps[l.tier], lifecycle.Flushed)
			}
		},
	})
	if err != nil {
		return err
	}
	if err = land(w, ""); err == nil {
		c.flushedDeep(ck, w.deepTier, reps[w.tier])
	}
	return err
}

// flushedDeep makes ck's landed record rep on d FLUSHED. After an SSD
// landing it first runs the best-effort breadth legs.
func (c *Client) flushedDeep(ck *checkpoint, d *deepTier, rep *replica) {
	if d.tier == TierSSD && !c.Draining() {
		// Best-effort breadth legs run only outside a drain: a preemption
		// deadline buys one durable copy per version, not replication (the
		// demotion half of the drain's cancel-or-demote contract). Both
		// are no-ops when the tier already holds the version. Partner-copy
		// replication (SCR/VELOC) keeps the version restorable through a
		// whole-node loss; a PFS failure here loses persistence breadth,
		// not the checkpoint — the SSD already holds the data. The durable
		// attribution is already finished; pass no attrib.
		c.routeToPartner(ck)
		if pfs := c.deepOf(TierPFS); pfs != nil && c.p.PersistToPFS {
			_ = c.landDurable(ck, pfs, false, nil)
		}
	}
	// Both tiers are durable for this scenario (the SSD holds a full
	// node's checkpoints, §2): the replica is immediately FLUSHED.
	c.mustTransition(ck, rep, lifecycle.Flushed)
}

// settleDeep applies the completion rules of a write onto d that returned
// werr, for landDurable and for each leg of raceDurable. Only a live
// process gets credit for a durable transition — a kill racing the flush
// must resolve the chain as lost, not durable. On failure the
// half-written replica is dropped; on success the replica is
// WRITE_COMPLETE and the version durable. Only the SSD's health moves
// here: a failure that is not a shutdown degrades it and a success heals
// it. The PFS has no deeper tier to fall to, so its failure is the
// flush's error (only a health quarantine degrades it).
func (c *Client) settleDeep(ck *checkpoint, d *deepTier, rep *replica, werr error, detail string) error {
	ssd := d.tier == TierSSD
	if werr == nil {
		werr = c.killGate()
	}
	if werr != nil {
		c.unlinkReplica(ck, d.tier, rep)
		if ssd && !isShutdownErr(werr) {
			c.degradeTier(TierSSD)
		}
		return werr
	}
	if ssd {
		c.healTier(TierSSD)
	}
	c.mustTransition(ck, rep, lifecycle.WriteComplete)
	c.lifecycle(ck.id, trace.LHopEnd, d.label, detail)
	c.accountFate(ck, fateDurable)
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
			"replicate → partner ssd", int64(ck.id), c.flowID(ck.id)).End()
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
	ck.flushAborted = true
	if ck.flushErr == nil {
		ck.flushErr = err
	}
	c.rescore(ck)
	c.bump()
	c.sendWakes()
	c.rec.FlushAbort()
	c.accountFate(ck, fateLost)
	c.markFlushed(ck, srcTier)
}

// dropReplica unlinks ck's record rep on a cache tier and releases its
// reservation, whose gap wakes blocked reservations.
func (c *Client) dropReplica(ck *checkpoint, tier Tier, rep *replica) {
	c.unlinkReplica(ck, tier, rep)
	if tier == TierHost {
		c.releaseStaged(ck)
	}
	c.bump()
	switch tier {
	case TierHost:
		c.hstC.Release(c.hostKey(ck.id))
	case TierGPU:
		if !c.gpuC.Release(cachebuf.ID(ck.id)) && c.gpuP != nil {
			c.gpuP.Release(cachebuf.ID(ck.id))
		}
	}
}

// markFlushed moves a tier's replica WRITE_COMPLETE → FLUSHED if it is
// still in WRITE_COMPLETE (a restore may have claimed it to READ_COMPLETE
// in the meantime, which is fine — the shortcut edge of Fig. 1).
func (c *Client) markFlushed(ck *checkpoint, tier Tier) {
	rep := ck.replicas[tier]
	if rep == nil {
		return
	}
	c.tryTransition(ck, rep, lifecycle.Flushed)
}
