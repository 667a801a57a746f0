package core

import (
	"cmp"
	"slices"

	"score/internal/trace"
)

// Rank-kill support: the fault-injection model for a process (or node)
// dying abruptly at a virtual time. A kill differs from Close in three
// ways: it can fire mid-flush (in-flight chains resolve as lost instead
// of completing), it sweeps every undecided checkpoint to the lost fate
// (the GPU and host tiers died with the process), and it reports the
// death to the commit hook and metrics. Durable effects are gated so a
// flush racing the kill never records a durability the process did not
// live to see: retry loops and the flush routes check liveErr/killGate
// before every attempt and before each fate transition.

// Kill simulates the abrupt death of this rank at the current virtual
// time. It blocks until the client's background tasks unwind, so it
// must not be called from one of the client's own daemons or I/O hooks
// — call it from a task of its own there, as a scheduled kill does.
// Killing an already killed or closed client is a no-op.
func (c *Client) Kill() {
	if !c.markKilled() {
		return
	}
	c.finishKill()
}

// Killed reports whether the rank has been killed.
func (c *Client) Killed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// markKilled flips the killed flag and wakes every task parked on the
// client's conds so the death is observed at the next gate.
func (c *Client) markKilled() bool {
	c.mu.Lock()
	if c.killed || c.closed {
		c.mu.Unlock()
		return false
	}
	c.killed = true
	c.bumpLocked()
	c.releaseFlushersLocked()
	c.mu.Unlock()
	c.lifecycle(-1, trace.LKilled, "", "rank killed")
	return true
}

// killGate returns ErrKilled once the rank is dead; flush routes call it
// before committing a durable effect.
func (c *Client) killGate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		return ErrKilled
	}
	return nil
}

// finishKill unwinds the dead rank: stop the daemons (in-flight work
// observes killed at its next gate and aborts as lost), release this
// rank's claims on a shared host pool so co-located survivors do not
// inherit dead reservations, then sweep every checkpoint whose fate was
// still undecided to lost — its only copies were on the GPU and host
// tiers that died with the process.
func (c *Client) finishKill() {
	c.Close()
	c.releaseSharedHost()

	c.mu.Lock()
	var undecided []*checkpoint
	for _, ck := range c.ckpts {
		if ck.fateAccounted {
			continue
		}
		if _, recovered := ck.pay.(*storePayload); recovered {
			continue // recovered checkpoints carry no conservation debt
		}
		undecided = append(undecided, ck)
	}
	c.mu.Unlock()
	// Deterministic sweep order (the map iteration above is not).
	slices.SortFunc(undecided, func(a, b *checkpoint) int { return cmp.Compare(a.id, b.id) })
	for _, ck := range undecided {
		c.mu.Lock()
		ck.flushAborted = true
		if ck.flushErr == nil {
			ck.flushErr = ErrKilled
		}
		c.rescoreLocked(ck)
		c.unlockWake()
		c.accountFate(ck, fateLost)
	}
	c.rec.RankDeath()
	if c.p.Commit != nil {
		c.p.Commit.RankDead(c.p.Rank)
	}
}

// releaseSharedHost frees the dead rank's entries in a shared host pool.
// A private host cache needs no sweep — it died with the client.
func (c *Client) releaseSharedHost() {
	if c.hostNS < 0 {
		return
	}
	c.mu.Lock()
	var ids []ID
	for id, ck := range c.ckpts {
		if ck.replicas[TierHost] != nil {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	slices.Sort(ids)
	for _, id := range ids {
		c.hstC.Release(c.hostKey(id))
	}
}
