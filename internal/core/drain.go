package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/trace"
)

// Deadline-bounded preemption drain (the scheduling-events layer). A
// preemption notice gives the rank a grace window; Drain triage-flushes
// the resident, not-yet-durable versions oldest-first against per-link
// deadline budgets, demotes every flush to its fastest durable route
// (best-effort partner/PFS breadth is skipped while draining), and fails
// open — a version whose estimated route cannot land inside the window
// is abandoned to ErrLost immediately instead of wedging the cache. The
// manifest reports every live version's outcome, so the scheduler (and
// the tests) can tell exactly what became durable before the reclaim.

// ErrDraining is returned by Checkpoint once a preemption drain has
// begun: the rank is being reclaimed and accepts no new state.
var ErrDraining = errors.New("core: client is draining (preemption notice)")

// DrainOutcome classifies one version's fate in a drain manifest.
type DrainOutcome int

const (
	// DrainAlreadyDurable: the version was durable before the triage ran
	// (or a still-running flush landed it during the notice window).
	DrainAlreadyDurable DrainOutcome = iota
	// DrainFlushed: the triage made the version durable inside the window.
	DrainFlushed
	// DrainDiscarded: the version was consumed and discardable (§2
	// condition 5); the drain dropped its pending flush.
	DrainDiscarded
	// DrainAbandoned: the version could not land inside the deadline
	// budget (or its only route failed); it was failed open to ErrLost.
	DrainAbandoned
)

// String names the outcome as rendered in manifests.
func (o DrainOutcome) String() string {
	switch o {
	case DrainAlreadyDurable:
		return "already-durable"
	case DrainFlushed:
		return "drained"
	case DrainDiscarded:
		return "discarded"
	case DrainAbandoned:
		return "abandoned"
	}
	return fmt.Sprintf("DrainOutcome(%d)", int(o))
}

// DrainEntry is one version's line in a drain manifest.
type DrainEntry struct {
	// Version is the checkpoint version.
	Version int64
	// Size is the version's payload size in bytes.
	Size int64
	// Outcome is the version's drain fate.
	Outcome DrainOutcome
	// Tier names the durable tier reached ("ssd", "pfs"); empty for
	// discarded and abandoned versions.
	Tier string
	// Reason explains an abandonment (deadline budget, route failure,
	// shutdown); empty otherwise.
	Reason string
	// At is the virtual time the outcome was decided.
	At time.Duration
}

// DrainManifest is the complete report of one deadline-bounded drain:
// what the grace window was, what became durable, and what was
// explicitly abandoned. Every version live in the client at drain time
// has exactly one entry (versions recovered from a store are excluded —
// they are already durable by construction and carried no flush debt).
type DrainManifest struct {
	// Grace is the window the preemption notice granted.
	Grace time.Duration
	// Started and Deadline bound the window on the virtual timeline;
	// Finished is when the triage completed (past Deadline on a miss).
	Started, Deadline, Finished time.Duration
	// Entries lists every live version's outcome, ascending by version.
	Entries []DrainEntry
	// DurableBytes counts bytes durable at drain end (already-durable
	// plus triage-flushed); AbandonedBytes counts bytes failed open to
	// ErrLost; DiscardedBytes counts dropped discardable flushes.
	DurableBytes, AbandonedBytes, DiscardedBytes int64
	// DeadlineMet reports a fully successful drain: the triage finished
	// inside the window AND abandoned nothing. A drain that fails open on
	// time is prompt but not a hit.
	DeadlineMet bool
}

// Count returns how many entries carry the given outcome.
func (m DrainManifest) Count(o DrainOutcome) int {
	n := 0
	for _, e := range m.Entries {
		if e.Outcome == o {
			n++
		}
	}
	return n
}

// Complete reports whether every entry reached a terminal outcome with
// the invariant the acceptance contract demands: abandoned entries carry
// an explicit reason and nothing is left undecided. A manifest built by
// Drain is complete by construction; tests assert it anyway.
func (m DrainManifest) Complete() bool {
	for _, e := range m.Entries {
		if e.Outcome == DrainAbandoned && e.Reason == "" {
			return false
		}
	}
	return true
}

// String renders the manifest tally (the LDrainEnd ledger detail).
func (m DrainManifest) String() string {
	return fmt.Sprintf("drained %d, already-durable %d, discarded %d, abandoned %d (%s in %v window)",
		m.Count(DrainFlushed), m.Count(DrainAlreadyDurable), m.Count(DrainDiscarded),
		m.Count(DrainAbandoned), map[bool]string{true: "met", false: "missed"}[m.DeadlineMet], m.Grace)
}

// Draining reports whether a preemption drain has begun on this client.
func (c *Client) Draining() bool {
	return c.drain != nil
}

// drainRun is a preemption drain's record, set on the client at the notice
// and kept for its life (a notice is not revoked). While it is recorded,
// nothing but the triage queues flush work, so every job a T_H2F worker
// pops is one of the triage's admitted flushes (runH2F).
type drainRun struct {
	deadline time.Duration
	active   bool              // the triage is still running (WaitFlush waits)
	outcomes map[ID]DrainEntry // the triage's decisions
}

// drainCandidate is one undecided version the triage planner considers.
type drainCandidate struct {
	ck         *checkpoint
	fromGPU    bool // flush must charge the PCIe hop (no host replica)
	discard    bool // consumed and discardable: drop, don't flush
	unservable bool // no readable replica anywhere: abandon immediately
}

// Drain executes a deadline-bounded preemption drain with the given
// grace window and returns the manifest. It is sticky: once called, the
// client rejects new checkpoints with ErrDraining for the rest of its
// life (a preemption notice is not revoked). Restores remain allowed —
// they serve from whatever tiers survive. It may run in a task of its
// own alongside foreground traffic; a second call returns ErrDraining.
func (c *Client) Drain(grace time.Duration) (DrainManifest, error) {
	grace = max(grace, 0)
	switch {
	case c.killed:
		return DrainManifest{}, ErrKilled
	case c.closed:
		return DrainManifest{}, ErrClosed
	case c.drain != nil:
		return DrainManifest{}, ErrDraining
	}
	start := c.clk.Now()
	d := &drainRun{deadline: start + grace, active: true, outcomes: map[ID]DrainEntry{}}
	c.drain = d
	// The notice empties both flush queues: the triage owns every version
	// no worker holds yet, and from here Checkpoint and enqueueH2F queue
	// nothing. Workers finish their in-flight job. There is deliberately
	// no "wait for writers" phase — a writer blocked on cache admission may
	// be waiting on an eviction only the triage's own flushing can unlock
	// (e.g. every flush worker parked behind host registration), so waiting
	// first can burn the whole window. Writers already past the admission
	// gate land mid-drain instead: the round loop's busy flag covers them,
	// and their versions are triaged (and charged against whatever budget
	// remains) once they appear.
	c.d2h.q, c.h2f.q = idFIFO{}, idFIFO{}
	c.bump()

	c.rec.DrainStart()
	c.lifecycle(-1, trace.LDrainStart, "", fmt.Sprintf("grace %v", grace))

	// Triage rounds. Each round snapshots the undecided versions not
	// owned by an in-flight worker, plans them against the remaining
	// per-link budget, and flushes the admitted ones. Workers finishing
	// mid-round hand their stragglers to the next round; with nothing
	// queued outside the triage, the undecided set only shrinks.
	for {
		cands, busy := c.drainSnapshot()
		if len(cands) == 0 {
			if !busy {
				break
			}
			// A worker still owns a job (e.g. blocked on host admission
			// that a just-finished triage flush is about to free); wait
			// for it to land and re-snapshot.
			c.cond.Wait()
			continue
		}
		c.drainRound(cands)
	}

	finish := c.clk.Now()
	d.active = false
	c.bump()

	m := DrainManifest{Grace: grace, Started: start, Deadline: d.deadline, Finished: finish}
	c.buildManifest(&m, d.outcomes)
	m.DeadlineMet = finish <= d.deadline && m.Count(DrainAbandoned) == 0
	c.rec.DrainDeadline(m.DeadlineMet)
	if c.p.SLO != nil {
		c.p.SLO.ObserveDrain(m.DeadlineMet)
	}
	if m.DeadlineMet {
		c.rec.ObserveDuration(metrics.HistDrainSlack, d.deadline-finish)
	}
	c.lifecycle(-1, trace.LDrainEnd, "", m.String())
	return m, c.liveErr()
}

// drainSnapshot collects the undecided, worker-unowned versions in
// oldest-durability-first order (ascending writtenAt, then version) and
// reports whether any worker still owns a job.
func (c *Client) drainSnapshot() ([]drainCandidate, bool) {
	var cands []drainCandidate
	for _, ck := range c.ckpts {
		// A worker-owned version is off limits — unless the worker is
		// parked on host registration, in which case the triage claims
		// the job (the park can outlast the whole grace window).
		if ck.fateAccounted || ck.drainClaimed || (c.inFlight[ck.id] > 0 && !ck.hostWait) {
			continue
		}
		if ck.recovered() {
			continue
		}
		cand := drainCandidate{ck: ck}
		switch {
		case ck.consumed && c.p.DiscardAfterRestore:
			cand.discard = true
		case ck.dataOn(TierHost):
			cand.fromGPU = false
		case ck.dataOn(TierGPU):
			cand.fromGPU = true
		case ck.writing:
			// The writer is still landing this version: in the GPU cache, or
			// straight down the chain in a synchronous flush, whose bytes no
			// tier holds until they land. The busy flag keeps the round loop
			// alive; a later round sees the version with data, or decided.
			continue
		default:
			cand.unservable = true
		}
		cands = append(cands, cand)
	}
	// Oldest-durability-first: the version written earliest flushes first
	// (ties break on version number so the order is deterministic under
	// same-instant writes).
	slices.SortFunc(cands, func(a, b drainCandidate) int {
		return cmp.Or(cmp.Compare(a.ck.writtenAt, b.ck.writtenAt), cmp.Compare(a.ck.id, b.ck.id))
	})
	// Busy counts only workers whose decision still matters: one sleeping
	// on a claimed (or otherwise decided) version holds nothing up.
	for id := range c.inFlight {
		if ck := c.ckpts[id]; ck != nil && !ck.drainClaimed && !ck.fateAccounted {
			return cands, true
		}
	}
	return cands, c.writersBusy > 0
}

// drainRoute returns the links a candidate's demoted (fastest-durable)
// flush route crosses, or an error when no durable route exists.
func (c *Client) drainRoute(cand drainCandidate) ([]*fabric.Link, error) {
	var route []*fabric.Link
	if cand.fromGPU {
		route = append(route, c.p.GPU.PCIeLink())
	}
	if !c.tierDegraded(TierSSD) {
		return append(route, c.p.NVMe), nil
	}
	if c.deepOf(TierPFS) != nil {
		return append(route, c.p.PFS), nil
	}
	return nil, fmt.Errorf("%w: ssd tier degraded and no PFS configured", ErrTierIO)
}

// drainRound plans one snapshot against the remaining per-link budget,
// fails open at once the versions that do not fit, and runs the admitted
// flushes on the T_H2F pool, returning once the pool is idle.
func (c *Client) drainRound(cands []drainCandidate) {
	d := c.drain
	remaining := d.deadline - c.clk.Now()
	budget := map[*fabric.Link]time.Duration{}
	var admitted []drainCandidate
	for _, cand := range cands {
		ck := cand.ck
		// The triage owns this version's fate from here: a worker parked
		// on it walks away when it wakes.
		ck.drainClaimed = true
		switch {
		case cand.discard:
			c.accountFate(ck, fateDiscarded)
			d.outcomes[ck.id] = DrainEntry{Version: int64(ck.id), Size: ck.size,
				Outcome: DrainDiscarded, At: c.clk.Now()}
			continue
		case cand.unservable:
			c.drainAbandon(ck, "no readable replica to flush")
			continue
		}
		route, err := c.drainRoute(cand)
		if err != nil {
			c.drainAbandon(ck, err.Error())
			continue
		}
		// Per-link deadline budget: admit the version only if every hop's
		// cumulative planned occupancy still fits the remaining window.
		fits := remaining > 0
		for _, l := range route {
			if budget[l]+l.Estimate(ck.size) > remaining {
				fits = false
				break
			}
		}
		if !fits {
			c.drainAbandon(ck, fmt.Sprintf("deadline budget exhausted (%v left in %v window)",
				max(remaining, 0), d.deadline))
			continue
		}
		for _, l := range route {
			budget[l] += l.Estimate(ck.size)
		}
		admitted = append(admitted, cand)
	}
	if len(admitted) == 0 {
		return
	}

	// Queue the admitted flushes in plan order, so the oldest versions
	// flush first even when a late flush overshoots its estimate. A killed
	// or closed client's workers exit once their queue is empty, so a
	// round that finds the rank gone has no one to run its flushes and
	// fails them open itself.
	if c.killed || c.closed {
		reason := c.liveErr().Error()
		for _, cand := range admitted {
			c.drainAbandon(cand.ck, reason)
		}
		return
	}
	for _, cand := range admitted {
		cand.ck.drainFromGPU = cand.fromGPU
		c.h2f.push(cand.ck.id)
	}
	c.cond.WaitFor(c.h2fIdle)
}

// drainFlush runs one admitted version on a T_H2F worker, landing it on
// its fastest durable tier. Its gates fail the version open when the
// window has already passed (estimates are optimistic under foreground
// contention) or the rank is gone: a killed or closed client's workers
// still pop the queued drain flushes, so the round waiting on them ends.
func (c *Client) drainFlush(ck *checkpoint) {
	if c.clk.Now() >= c.drain.deadline {
		c.drainAbandon(ck, "deadline passed before flush could start")
		return
	}
	if err := c.liveErr(); err != nil {
		c.drainAbandon(ck, err.Error())
		return
	}
	// Time queued for a worker (since the version's last attributed
	// segment) is the drain-wait component of its durable critical path.
	c.mark(ck.att, metrics.DrainWait)
	start := c.clk.Now()
	if err := c.flushDeep(ck, ck.drainFromGPU, ck.att); err != nil {
		c.drainAbandon(ck, err.Error())
		return
	}
	c.markFlushed(ck, TierGPU)
	c.markFlushed(ck, TierHost)
	c.rec.ObserveDuration(metrics.HistDrainFlush, c.clk.Now()-start)
	c.rec.DrainFlushed(ck.size)
	c.drain.outcomes[ck.id] = DrainEntry{Version: int64(ck.id), Size: ck.size,
		Outcome: DrainFlushed, Tier: c.firstHolder(ck).label, At: c.clk.Now()}
}

// drainAbandon fails one version open to ErrLost: the manifest carries
// the explicit reason, Restore answers definitively (from a surviving
// cache replica while it lasts, ErrLost after), and the cache never
// wedges on it.
func (c *Client) drainAbandon(ck *checkpoint, reason string) {
	src := TierGPU
	if ck.dataOn(TierHost) {
		src = TierHost
	}
	c.abortFlush(ck, src, fmt.Errorf("%w: drain: %s", ErrLost, reason))
	c.rec.DrainAbandoned(ck.size)
	c.lifecycle(ck.id, trace.LDrainAbandoned, "", reason)
	c.drain.outcomes[ck.id] = DrainEntry{Version: int64(ck.id), Size: ck.size,
		Outcome: DrainAbandoned, Reason: reason, At: c.clk.Now()}
}

// buildManifest classifies every live version: triage outcomes are taken
// from the round bookkeeping; versions decided outside the triage (flushed
// by a worker during the notice window, durable before the notice, or
// swept by a racing kill) are classified from their replica state.
func (c *Client) buildManifest(m *DrainManifest, outcomes map[ID]DrainEntry) {
	var entries []DrainEntry
	for id, ck := range c.ckpts {
		if ck.recovered() {
			continue
		}
		if e, ok := outcomes[id]; ok {
			entries = append(entries, e)
			continue
		}
		e := DrainEntry{Version: int64(id), Size: ck.size, At: m.Finished}
		switch d := c.firstHolder(ck); {
		case d != nil:
			e.Outcome, e.Tier = DrainAlreadyDurable, d.label
		case ck.flushAborted:
			e.Outcome = DrainAbandoned
			e.Reason = "flush aborted"
			if ck.flushErr != nil {
				e.Reason = ck.flushErr.Error()
			}
		default:
			e.Outcome = DrainDiscarded
		}
		entries = append(entries, e)
	}
	slices.SortFunc(entries, func(a, b DrainEntry) int { return cmp.Compare(a.Version, b.Version) })
	for _, e := range entries {
		switch e.Outcome {
		case DrainAlreadyDurable, DrainFlushed:
			m.DurableBytes += e.Size
		case DrainAbandoned:
			m.AbandonedBytes += e.Size
		case DrainDiscarded:
			m.DiscardedBytes += e.Size
		}
	}
	m.Entries = entries
}
