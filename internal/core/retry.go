package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"score/internal/metrics"
	"score/internal/trace"
)

// RetryPolicy bounds the jittered exponential backoff applied to
// transient tier-I/O failures (injected or real). Backoff sleeps run on
// the client's clock, so virtual-time tests stay deterministic.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; it doubles each
	// retry (with ±50% jitter) up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry sleep.
	MaxBackoff time.Duration
	// ProbeInterval is how long a degraded tier stays quarantined before
	// the next operation is allowed to probe it again; a successful
	// probe re-promotes the tier (TierRecovery), a failed one re-arms
	// the quarantine. 0 takes the default (100ms simulated); negative
	// disables probing, keeping degradations sticky for the client's
	// lifetime (the pre-recovery behavior).
	ProbeInterval time.Duration
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 4
	}
	if rp.BaseBackoff <= 0 {
		rp.BaseBackoff = 500 * time.Microsecond
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = 8 * time.Millisecond
	}
	if rp.ProbeInterval == 0 {
		rp.ProbeInterval = 100 * time.Millisecond
	}
	return rp
}

// Robustness errors.
var (
	// ErrTierIO: a tier I/O operation kept failing through every retry.
	// The pipeline degrades around it; only operations with no deeper
	// tier to fall back to surface it to the application.
	ErrTierIO = errors.New("core: tier I/O failed")
	// ErrLost: no tier holds a readable copy of the checkpoint (its
	// flush chain was aborted and the cache copy evicted, or every
	// durable replica failed). Definitive — retrying cannot help.
	ErrLost = errors.New("core: checkpoint lost")
)

// retryIO runs op under the client's retry policy: on failure it records
// a retry against label ("pcie", "ssd", "pfs", ...), sleeps a jittered
// exponential backoff on the simulated clock, and tries again, up to
// MaxAttempts. The final error wraps both ErrTierIO and op's error.
func (c *Client) retryIO(label, what string, op func() error) error {
	return c.retryIOAttr(nil, nil, 0, label, what, op)
}

// retryIOAttr is retryIO with critical-path attribution and lifecycle
// ledgering: backoff sleeps are charged to CompRetryBackoff and each
// attempt's elapsed time (including failed attempts — faulted transfers
// consume real time before erroring) to comp when att is non-nil, and
// each retry is ledgered against ck's version when ck is non-nil.
// Without att, comp is ignored.
func (c *Client) retryIOAttr(ck *checkpoint, att *attrib, comp metrics.Comp, label, what string, op func() error) error {
	policy := c.p.Retry
	backoff := policy.BaseBackoff
	var err error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.rec.Retry(label)
			if ck != nil {
				c.lifecycle(ck.id, trace.LRetried, label, what)
			}
			sleep := c.jitter(backoff)
			c.rec.ObserveDuration(metrics.HistRetryBackoff, sleep)
			c.clk.Sleep(sleep)
			c.mark(att, metrics.RetryBackoff)
			backoff *= 2
			if backoff > policy.MaxBackoff {
				backoff = policy.MaxBackoff
			}
		}
		if lerr := c.liveErr(); lerr != nil {
			if attempt > 0 {
				c.rec.RetryBout(false)
			}
			return lerr
		}
		err = op()
		c.mark(att, comp)
		if err == nil {
			if attempt > 0 {
				c.rec.RetryBout(true)
			}
			return nil
		}
	}
	c.rec.RetryBout(false)
	return fmt.Errorf("%w: %s %s (%d attempts): %w", ErrTierIO, label, what, policy.MaxAttempts, err)
}

// jitter spreads d over [0.5d, 1.5d) so concurrent retry loops decorrelate.
// The first call seeds the client's generator from its fault seed and GPU,
// so a client that never retries never builds one, and equal seeds on one
// GPU draw equal sequences.
func (c *Client) jitter(d time.Duration) time.Duration {
	if c.rnd == nil {
		c.rnd = rand.New(rand.NewSource(c.p.FaultSeed*0x9E3779B9 + int64(c.p.GPU.ID()) + 1))
	}
	f := 0.5 + c.rnd.Float64()
	return time.Duration(float64(d) * f)
}

// liveErr reports why the client can no longer perform I/O: ErrKilled
// after a rank kill, ErrClosed after an orderly Close, nil while alive.
func (c *Client) liveErr() error {
	if c.killed {
		return ErrKilled
	}
	if c.closed {
		return ErrClosed
	}
	return nil
}

// isShutdownErr distinguishes "the client is going away" from a tier
// fault: degradation and fallback routing must not trigger on it.
func isShutdownErr(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, ErrKilled)
}

// degradeTier marks t persistently failed. Flush routing and the read
// path consult this to skip the tier: a degraded SSD makes flushes route
// host→PFS directly and reads prefer the PFS replica; a degraded host
// makes D2H flushes stream GPU→SSD. Only the first transition counts as
// a Degradation; a failed recovery probe merely refreshes the quarantine
// timestamp. Returns whether this call made the transition (false when
// the tier was already degraded), so health-triggered quarantines can
// account themselves exactly once.
func (c *Client) degradeTier(t Tier) bool {
	already := c.degraded[t]
	c.degraded[t] = true
	c.degradedAt[t] = c.clk.Now()
	if !already {
		c.bump()
	}
	if already {
		return false
	}
	c.rec.Degradation(t.String())
	c.lifecycle(-1, trace.LDegraded, t.String(), "")
	return true
}

// tierDegraded reports whether t should currently be skipped. A degraded
// tier re-enters probation once Retry.ProbeInterval has elapsed since it
// was (last) marked: the caller's next operation probes it, healTier
// clears the mark on success, and a failure re-arms the quarantine.
func (c *Client) tierDegraded(t Tier) bool {
	if !c.degraded[t] {
		return false
	}
	if pi := c.p.Retry.ProbeInterval; pi > 0 && c.clk.Now() >= c.degradedAt[t]+pi {
		return false // probation: let the caller try the tier again
	}
	return true
}

// healTier clears a degradation after an operation on t succeeded — the
// recovery half of the degradation ladder. A no-op on healthy tiers, so
// success paths call it unconditionally. Under gray-failure handling a
// success is not enough: a probe that completes slowly keeps the tier's
// health score breached, and the quarantine stands until the EWMA
// recovers — succeeding is necessary but not sufficient to rejoin.
func (c *Client) healTier(t Tier) {
	if c.p.Hedge {
		if d := c.deepOf(t); d != nil && d.health.breached() {
			return
		}
	}
	healed := c.degraded[t]
	if healed {
		c.degraded[t] = false
		c.bump()
	}
	if !healed {
		return
	}
	c.rec.TierRecovery(t.String())
	// Mirror degradeTier's ledger entry so the heal is visible in Chrome
	// traces and version ledgers, not just the TierRecoveries counter.
	c.lifecycle(-1, trace.LHealed, t.String(), "probe succeeded")
}

// DegradedTiers is the client's health view: the tiers marked
// persistently failed, in fast-to-slow order. Empty means healthy.
func (c *Client) DegradedTiers() []Tier {
	var out []Tier
	for t := TierGPU; t <= TierPFS; t++ {
		if c.degraded[t] {
			out = append(out, t)
		}
	}
	return out
}
