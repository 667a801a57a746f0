package core

import (
	"fmt"
	"time"

	"score/internal/metrics"
	"score/internal/trace"
)

// This file is the client's observability surface: byte-conservation
// fate accounting (every accepted checkpoint ends up durable, discarded,
// or lost — exactly once), sampler probe registration, and the invariant
// check entry points used by tests and the chaos soak.

// ckptFate is the terminal conservation outcome of one checkpoint.
type ckptFate int

const (
	// fateDurable: the bytes landed on a durable tier (SSD or PFS).
	fateDurable ckptFate = iota
	// fateDiscarded: the pending flush was cancelled because the
	// checkpoint was consumed and is discardable (§2 condition 5), or
	// its cache replica vanished after consumption.
	fateDiscarded
	// fateLost: every durable route failed (abortFlush's fail-open).
	fateLost
)

// accountFate credits ck's bytes to one conservation fate, exactly once
// per checkpoint. Later calls (e.g. a discard check on a checkpoint that
// already flushed) are no-ops. Checkpoints recovered from a durable
// store were never accepted into this client's pipeline and are
// excluded, keeping accepted == durable + discarded + lost at
// quiescence.
func (c *Client) accountFate(ck *checkpoint, fate ckptFate) {
	if ck.fateAccounted {
		return
	}
	if ck.recovered() {
		return
	}
	ck.fateAccounted = true
	switch fate {
	case fateDurable:
		// ConserveDurable before CritPath: the running invariant bounds
		// attribution records by durable checkpoints at every instant.
		c.rec.ConserveDurable(ck.size)
		if ck.att != nil {
			crit := ck.att.finish(c.clk.Now())
			c.rec.Attribute(crit)
			if c.p.SLO != nil {
				c.p.SLO.ObserveAttribution(crit)
			}
		}
		c.lifecycle(ck.id, trace.LDurable, "", "")
	case fateDiscarded:
		c.rec.ConserveDiscarded(ck.size)
		c.lifecycle(ck.id, trace.LDiscarded, "", "")
	case fateLost:
		c.rec.ConserveLost(ck.size)
		c.lifecycle(ck.id, trace.LLost, "", "")
	}
	// Group commit (§cluster failure model): report durable/lost
	// transitions so the job-wide tracker can compute the globally
	// committed frontier. Discards are deliberately not reported — a
	// consumed-and-discardable version is not restart state.
	if c.p.Commit != nil {
		switch fate {
		case fateDurable:
			c.p.Commit.MarkDurable(c.p.Rank, int64(ck.id))
		case fateLost:
			c.p.Commit.MarkLost(c.p.Rank, int64(ck.id))
		}
	}
}

// RegisterProbes attaches this client's gauge probes to a sampler: cache
// occupancy and score means per tier, flush queue depths, and the GPU's
// copy-engine occupancy. Call before Sampler.Start. prefix
// disambiguates clients sharing a sampler (GPU IDs repeat across
// nodes); empty defaults to "gpu<id>". The host-cache probes are
// registered even for a shared pool (the values are then pool-wide,
// not per-client).
func (c *Client) RegisterProbes(s *metrics.Sampler, prefix string) {
	if prefix == "" {
		prefix = fmt.Sprintf("gpu%d", c.p.GPU.ID())
	}
	name := func(what string) string {
		return prefix + "." + what
	}
	s.Register(name("cache.gpu.used_bytes"), func() float64 {
		used := c.gpuC.UsedBytes()
		if c.gpuP != nil {
			used += c.gpuP.UsedBytes()
		}
		return float64(used)
	})
	s.Register(name("cache.gpu.resident"), func() float64 {
		n := c.gpuC.Resident()
		if c.gpuP != nil {
			n += c.gpuP.Resident()
		}
		return float64(n)
	})
	// One ScoreSummary pass over the GPU cache's fragments serves both
	// score series of a tick: whichever probe is polled first at a
	// simulated instant reads the cache, the other what it found. Keyed by
	// the instant, because a tick and the sampler's final sample can poll
	// at the same instant. They never interleave: probes do not block, so
	// a poll runs from start to end in one task.
	var scores struct {
		at   time.Duration // instant of the pass held in p and s
		p, s float64
	}
	scores.at = -1
	scoreMeans := func() (p, sc float64) {
		if now := c.clk.Now(); scores.at != now {
			scores.p, scores.s = c.gpuC.ScoreSummary()
			scores.at = now
		}
		return scores.p, scores.s
	}
	s.Register(name("cache.gpu.score_p_mean"), func() float64 {
		p, _ := scoreMeans()
		return p
	})
	s.Register(name("cache.gpu.score_s_mean"), func() float64 {
		_, sc := scoreMeans()
		return sc
	})
	s.Register(name("cache.host.used_bytes"), func() float64 {
		return float64(c.hstC.UsedBytes())
	})
	s.Register(name("cache.host.resident"), func() float64 {
		return float64(c.hstC.Resident())
	})
	s.Register(name("engines.busy"), func() float64 {
		return float64(c.p.GPU.EnginesBusy())
	})
	s.Register(name("queue.d2h"), func() float64 {
		return float64(c.d2h.q.len() + c.d2h.busy)
	})
	s.Register(name("queue.h2f"), func() float64 {
		return float64(c.h2f.q.len() + c.h2f.busy)
	})
	// Tier health: how many tiers are currently out of rotation, and how
	// many degradations a probe has healed — sampled so dashboards see
	// the recovery itself, not only the terminal counters.
	s.Register(name("tiers.degraded"), func() float64 {
		return float64(len(c.DegradedTiers()))
	})
	s.Register(name("tiers.recoveries"), func() float64 {
		return float64(c.rec.TierRecoveryCount())
	})
	// Per-link-class gray-failure health: the EWMA slowdown ratio of each
	// deep link class (1.0 = nominal, 0 = no samples yet). Sampled so
	// dashboards see the degradation building before a quarantine trips.
	for i := range c.deep {
		class := c.deep[i].label
		s.Register(name("health."+class), func() float64 {
			return c.health.score(class)
		})
	}
	s.Register(name("drain.active"), func() float64 {
		if c.drain != nil && c.drain.active {
			return 1
		}
		return 0
	})
}

// CheckInvariants verifies the recorder's structural invariants (byte
// conservation bounds, retry-bout bounds, histogram consistency) on the
// client's books in place.
func (c *Client) CheckInvariants() error {
	return c.rec.CheckInvariants()
}

// CheckInvariantsQuiescent additionally asserts the flush pipeline is
// fully drained (no pending bytes). Valid only after WaitFlush and
// before Close.
func (c *Client) CheckInvariantsQuiescent() error {
	return c.rec.CheckInvariantsQuiescent()
}
