package core

import (
	"sort"
	"time"
)

// This file implements the per-link-class health estimator behind the
// gray-failure machinery: online latency quantiles drive the adaptive
// hedge/stall deadlines, and an EWMA slowdown score drives
// quarantine-on-breach (generalizing the error-triggered degradation of
// retry.go to faults that never return an error, only time).

const (
	// healthRing bounds the per-class window of recent slowdown ratios
	// the quantile estimate is computed over.
	healthRing = 64
	// healthAlpha is the EWMA smoothing factor for the slowdown score.
	healthAlpha = 0.3
	// healthBreach is the EWMA slowdown ratio beyond which a link class
	// is considered gray-failed and its tier quarantined. A healthy link
	// scores ~1.0 (observed latency equals the best ever observed).
	healthBreach = 8.0
	// healthMinSamples gates breach decisions: a class is never
	// quarantined off fewer observations than this.
	healthMinSamples = 4
	// hedgeHeadroom multiplies the quantile estimate when deriving a
	// deadline, so ordinary tail noise does not trigger hedges.
	hedgeHeadroom = 2.0
	// hedgeDelayFloor bounds the adaptive hedge/stall deadlines from
	// below, guarding against hair-trigger hedging on a calibration from
	// a few fast samples.
	hedgeDelayFloor = time.Millisecond
)

// classHealth tracks one link class ("ssd", "partner", "pfs"): each deep
// tier row holds its own (deepTier.health), built by its first
// observation, so a class never observed costs nothing; a nil class has
// no observations. Observations are pure state updates (no clock
// interaction), so feeding it on every successful transfer cannot
// perturb scheduling — the hedging-off configuration stays
// byte-identical to the seed.
type classHealth struct {
	floor   float64 // best observed ns-per-byte — the nominal link speed
	ring    [healthRing]float64
	n, next int
	ewma    float64 // EWMA of the slowdown ratio; 1.0 = nominal
}

// observe folds one successful transfer of size bytes taking d into the
// estimate of t's class, building the class on the first.
func (t *deepTier) observe(size int64, d time.Duration) {
	if size <= 0 || d <= 0 {
		return
	}
	perByte := float64(d) / float64(size)
	ch := t.health
	if ch == nil {
		ch = &classHealth{floor: perByte, ewma: 1}
		t.health = ch
	}
	if perByte < ch.floor {
		ch.floor = perByte
	}
	ratio := perByte / ch.floor
	ch.ring[ch.next] = ratio
	ch.next = (ch.next + 1) % healthRing
	if ch.n < healthRing {
		ch.n++
	}
	ch.ewma = (1-healthAlpha)*ch.ewma + healthAlpha*ratio
}

// deadline returns the adaptive transfer deadline for moving size bytes
// over class: the windowed median slowdown ratio times the nominal
// per-byte latency times the size, with headroom, clamped from below by
// hedgeDelayFloor. With no samples yet it returns 0 —
// "no deadline": the estimator has to earn the right to call a transfer
// slow, so uncalibrated operations are never hedged or flagged as
// stalled on a guess.
//
// The quantile is deliberately the median, not a tail one: the deadline
// models what a healthy transfer typically costs, and the tail of the
// recent window is exactly what a gray fault pollutes first (hedge
// losers completing mid-run observe their own 20× reads — a single such
// sample IS the window's P99, and a tail-based deadline would learn the
// straggler's latency as the new normal and stop firing). The median
// stays honest until more than half the window is sick, by which point
// the EWMA has long since breached and quarantined the tier. The cap at
// healthBreach bounds the damage even then.
func (ch *classHealth) deadline(size int64) time.Duration {
	var d time.Duration
	if ch != nil && ch.n > 0 {
		ratios := make([]float64, ch.n)
		copy(ratios, ch.ring[:ch.n])
		sort.Float64s(ratios)
		q := ratios[len(ratios)/2]
		if q > healthBreach {
			q = healthBreach
		}
		d = time.Duration(q * ch.floor * float64(size) * hedgeHeadroom)
	}
	if d == 0 {
		return 0
	}
	return max(d, hedgeDelayFloor)
}

// score returns the class's EWMA slowdown ratio (1.0 = nominal); 0 when
// the class has no observations yet.
func (ch *classHealth) score() float64 {
	if ch == nil {
		return 0
	}
	return ch.ewma
}

// breached reports whether the class's EWMA slowdown has crossed the
// quarantine threshold (with enough samples to trust it).
func (ch *classHealth) breached() bool {
	return ch != nil && ch.n >= healthMinSamples && ch.ewma >= healthBreach
}

// observeHealth feeds a successful transfer on deep tier d into the
// estimator and, when gray-failure handling is enabled, quarantines the
// tier if its health score breached: the operation succeeded, but so
// slowly that the class is effectively failed. The quarantine rides the
// existing degradation machinery, so probe-based reinstatement
// (tierDegraded probation + healTier) applies unchanged. Pure observation
// when hedging is off.
func (c *Client) observeHealth(d *deepTier, size int64, dur time.Duration) {
	d.observe(size, dur)
	if !c.p.Hedge || !d.health.breached() {
		return
	}
	if c.degradeTier(d.tier) {
		// degradeTier already ledgered the transition; the counter marks
		// it as health-triggered rather than error-triggered.
		c.rec.HealthQuarantine()
	}
}
