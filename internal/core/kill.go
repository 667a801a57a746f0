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
	return c.killed
}

// markKilled flips the killed flag and wakes every task parked on the
// client's conds so the death is observed at the next gate. A dead rank
// holds nothing: the rescore makes every one of its cache fragments read
// evictable, so a reservation parked on a window they lie in — its own
// flusher's, or a co-located survivor's in a shared host pool — proceeds.
func (c *Client) markKilled() bool {
	if c.killed || c.closed {
		return false
	}
	c.killed = true
	c.bump()
	c.releaseFlushers()
	for _, ck := range c.ckpts {
		c.rescore(ck)
	}
	c.sendWakes()
	c.lifecycle(-1, trace.LKilled, "", "rank killed")
	return true
}

// killGate returns ErrKilled once the rank is dead; flush routes call it
// before committing a durable effect.
func (c *Client) killGate() error {
	if c.killed {
		return ErrKilled
	}
	return nil
}

// finishKill unwinds the dead rank: stop the daemons (in-flight work
// observes killed at its next gate and aborts as lost), then sweep every
// checkpoint whose fate was still undecided to lost — its only copies
// were on the GPU and host tiers that died with the process.
func (c *Client) finishKill() {
	c.Close()

	var undecided []*checkpoint
	for _, ck := range c.ckpts {
		if ck.fateAccounted {
			continue
		}
		if ck.recovered() {
			continue // recovered checkpoints carry no conservation debt
		}
		undecided = append(undecided, ck)
	}
	// Deterministic sweep order (the map iteration above is not).
	slices.SortFunc(undecided, func(a, b *checkpoint) int { return cmp.Compare(a.id, b.id) })
	for _, ck := range undecided {
		ck.flushAborted = true
		if ck.flushErr == nil {
			ck.flushErr = ErrKilled
		}
		c.rescore(ck)
		c.sendWakes()
		c.accountFate(ck, fateLost)
	}
	c.rec.RankDeath()
	if c.p.Commit != nil {
		c.p.Commit.RankDead(c.p.Rank)
	}
}
