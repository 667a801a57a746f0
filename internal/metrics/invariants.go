package metrics

import (
	"errors"
	"fmt"
	"time"
)

// CheckInvariants verifies the conservation laws the observability layer
// turns into correctness oracles. They must hold at any point in a run:
//
//   - fate accounting never over-credits: durable + discarded + lost
//     bytes never exceed the bytes accepted into the pipeline;
//   - retry bouts are conservative: every recorded bout carried at least
//     one retry, so bouts <= total retries, and tiers are only marked
//     degraded after a bout exhausted its attempts;
//   - every repopulation was preceded by a fallback read;
//   - per-hop pipelined bytes match the payload: each hop of a complete
//     chunked stream moved exactly the stream's payload size;
//   - histograms are internally consistent (bucket counts sum to the
//     total) and agree with the operation counters they shadow.
//
// A nil error means every invariant holds.
func CheckInvariants(s Summary) error {
	_, _, err := checkRunning(&s, s.Histograms, nil)
	return err
}

// CheckInvariants runs the package's CheckInvariants on r's books in
// place: it copies nothing and reads the critical-path store packed, so a
// caller that only checks does not pay for a Snapshot.
func (r *Recorder) CheckInvariants() error {
	_, _, err := checkRunning(&r.s, r.hists, &r.crit)
	return err
}

// CheckInvariantsQuiescent runs the package's CheckInvariantsQuiescent
// on r's books in place, like CheckInvariants.
func (r *Recorder) CheckInvariantsQuiescent() error {
	return checkQuiescent(&r.s, r.hists, &r.crit)
}

// histView is a histogram as the invariants read it: a snapshot, or the
// recorder's live histogram seen through a view that copies nothing.
type histView interface{ view() HistogramSnapshot }

func (s HistogramSnapshot) view() HistogramSnapshot { return s }

// checkRunning is CheckInvariants over s, its histograms hists and its
// critical-path records: crit's when crit is not nil, else s.CritPaths.
// It also returns how many durable and restore records there are.
func checkRunning[H histView](s *Summary, hists map[string]H, crit *critStore) (durableRecs, restoreRecs int64, err error) {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	samples := func(name string) (int64, bool) {
		h, ok := hists[name]
		if !ok {
			return 0, false
		}
		return h.view().Count, true
	}

	// Fate accounting.
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"accepted", s.AcceptedBytes}, {"durable", s.DurableBytes},
		{"discarded", s.DiscardedBytes}, {"lost", s.LostBytes},
	} {
		if c.v < 0 {
			fail("conservation: %s bytes negative (%d)", c.name, c.v)
		}
	}
	if pending := s.PendingFlushBytes(); pending < 0 {
		fail("conservation: fates over-credited — durable(%d)+discarded(%d)+lost(%d) exceed accepted(%d) by %d",
			s.DurableBytes, s.DiscardedBytes, s.LostBytes, s.AcceptedBytes, -pending)
	}

	// Retry bouts. A recovered bout by definition retried at least once;
	// an exhausted bout may have had its attempts capped at one, so only
	// recovered bouts bound the per-retry counters.
	if s.RetryBoutsRecovered > s.TotalRetries() {
		fail("retries: %d recovered bouts but only %d retried attempts", s.RetryBoutsRecovered, s.TotalRetries())
	}
	// Every degradation transition is triggered either by an exhausted
	// retry bout (hard failure) or by a health-score breach (gray
	// failure).
	if d := s.TotalDegradations(); d > s.RetryBoutsExhausted+s.HealthQuarantines {
		fail("retries: %d degradations but only %d exhausted bouts + %d health quarantines",
			d, s.RetryBoutsExhausted, s.HealthQuarantines)
	}
	if s.Repopulations > s.FallbackReads {
		fail("retries: %d repopulations but only %d fallback reads", s.Repopulations, s.FallbackReads)
	}
	// A tier heals only after being marked degraded, and the transitions
	// alternate, so per-tier recoveries never exceed degradations.
	for tier, rec := range s.TierRecoveries {
		if rec > s.Degradations[tier] {
			fail("retries: tier %q healed %d times but degraded only %d times", tier, rec, s.Degradations[tier])
		}
	}
	if s.PartnerCopyBytes < 0 {
		fail("partner: negative replicated bytes (%d)", s.PartnerCopyBytes)
	}

	// Gray-failure tolerance: a hedge win needs a launched hedge leg, a
	// reroute needs a detected stall, and the waste/quarantine tallies
	// only ever accumulate. Health quarantines are a subset of the
	// degradation transitions they trigger.
	if s.HedgeWins > s.HedgesLaunched {
		fail("hedge: %d wins but only %d hedge legs launched", s.HedgeWins, s.HedgesLaunched)
	}
	if s.HedgeWastedBytes < 0 {
		fail("hedge: negative wasted bytes (%d)", s.HedgeWastedBytes)
	}
	if s.StallsRerouted > s.StallsDetected {
		fail("stall: %d reroutes but only %d stalls detected", s.StallsRerouted, s.StallsDetected)
	}
	if s.HealthQuarantines > s.TotalDegradations() {
		fail("health: %d quarantines but only %d degradations", s.HealthQuarantines, s.TotalDegradations())
	}
	if n, ok := samples(HistHedgeWait); ok && s.HedgesLaunched == 0 && n != 0 {
		fail("hedge: %d hedge_wait samples with no hedge launched", n)
	}

	// SLO alerting: every resolve follows a fire, and the telemetry-drop
	// gauges are mirrored totals that can never go negative.
	if s.SLOAlertsResolved > s.SLOAlertsFired {
		fail("slo: %d alerts resolved but only %d fired", s.SLOAlertsResolved, s.SLOAlertsFired)
	}
	if s.TraceEventsDropped < 0 || s.TraceCountersDropped < 0 || s.LedgerEventsDropped < 0 {
		fail("slo: negative telemetry-drop gauge (events %d, counters %d, ledger %d)",
			s.TraceEventsDropped, s.TraceCountersDropped, s.LedgerEventsDropped)
	}

	// Drain accounting folds into the fate ledger: every version a drain
	// flushed was credited durable, every abandoned one was credited lost
	// through the flush-abort path, and each drain decides its deadline
	// outcome at most once.
	if s.DrainedBytes > s.DurableBytes {
		fail("drain: %d drained bytes exceed %d durable bytes", s.DrainedBytes, s.DurableBytes)
	}
	if s.DrainAbandonedBytes > s.LostBytes {
		fail("drain: %d abandoned bytes exceed %d lost bytes", s.DrainAbandonedBytes, s.LostBytes)
	}
	if s.DrainAbandonedVersions > s.FlushAborts {
		fail("drain: %d abandoned versions but only %d flush aborts", s.DrainAbandonedVersions, s.FlushAborts)
	}
	if s.DrainDeadlineHits > s.Drains {
		fail("drain: %d deadline hits for %d drains", s.DrainDeadlineHits, s.Drains)
	}
	if s.Drains == 0 && (s.DrainedVersions != 0 || s.DrainAbandonedVersions != 0) {
		fail("drain: triage outcomes recorded (%d drained, %d abandoned) with no drain started",
			s.DrainedVersions, s.DrainAbandonedVersions)
	}
	if s.MigratedBytes < 0 {
		fail("migrate: negative migrated bytes (%d)", s.MigratedBytes)
	}
	if s.Migrations == 0 && s.MigratedVersions != 0 {
		fail("migrate: %d versions copied with no migration started", s.MigratedVersions)
	}

	// Pipelined per-hop byte conservation.
	if s.PipelinedHopBytes != s.PipelinedHopBytesWant {
		fail("pipeline: per-hop bytes %d != expected payload×hops %d (diff %d)",
			s.PipelinedHopBytes, s.PipelinedHopBytesWant, s.PipelinedHopBytes-s.PipelinedHopBytesWant)
	}

	// Histogram internal consistency.
	for name, hv := range hists {
		h := hv.view()
		var sum int64
		for _, c := range h.Counts {
			if c < 0 {
				fail("histogram %s: negative bucket count %d", name, c)
			}
			sum += c
		}
		if sum != h.Count {
			fail("histogram %s: bucket counts sum to %d, total says %d", name, sum, h.Count)
		}
	}
	if n, ok := samples(HistCheckpoint); ok && n != s.CheckpointOps {
		fail("histogram %s: %d samples vs %d checkpoint ops", HistCheckpoint, n, s.CheckpointOps)
	}
	if n, ok := samples(HistRestore); ok && n != s.RestoreOps {
		fail("histogram %s: %d samples vs %d restore ops", HistRestore, n, s.RestoreOps)
	}

	// Series consistency.
	if int64(len(s.RestoreSeries)) != s.RestoreOps {
		fail("restore series has %d points for %d restore ops", len(s.RestoreSeries), s.RestoreOps)
	}

	// Critical-path attribution: each record's components must telescope
	// to exactly its measured end-to-end latency with no unattributed
	// residue, and records never outnumber the operations they decompose.
	head := func(op string, version int64, total time.Duration) {
		switch op {
		case CritDurable:
			durableRecs++
		case CritRestore:
			restoreRecs++
		default:
			fail("critpath: unknown op %q (version %d)", op, version)
		}
		if total < 0 {
			fail("critpath: %s v%d has negative total %v", op, version, total)
		}
	}
	charge := func(op string, version int64, comp string, d time.Duration) time.Duration {
		if d < 0 {
			fail("critpath: %s v%d component %s negative (%v)", op, version, comp, d)
		}
		return d
	}
	tail := func(op string, version int64, total, unattributed, sum time.Duration) {
		if sum+unattributed != total {
			fail("critpath: %s v%d components (%v) + unattributed (%v) != total (%v)",
				op, version, sum, unattributed, total)
		}
		if unattributed != 0 {
			fail("critpath: %s v%d has unattributed latency gap %v", op, version, unattributed)
		}
	}
	if crit == nil {
		for _, rec := range s.CritPaths {
			head(rec.Op, rec.Version, rec.Total)
			var sum time.Duration
			for comp, d := range rec.Components {
				sum += charge(rec.Op, rec.Version, comp, d)
			}
			tail(rec.Op, rec.Version, rec.Total, rec.Unattributed, sum)
		}
	} else {
		crit.each(func(h *critHead, charges []uint64) {
			head(h.op, h.version, h.total)
			var sum time.Duration
			for _, v := range charges {
				c, d := unpackCharge(v)
				sum += charge(h.op, h.version, CompNames[c], d)
			}
			tail(h.op, h.version, h.total, h.unattributed, sum)
		})
	}
	if durableRecs > s.DurableOps {
		fail("critpath: %d durable records but only %d durable checkpoints", durableRecs, s.DurableOps)
	}
	if restoreRecs > s.RestoreOps {
		fail("critpath: %d restore records but only %d restore ops", restoreRecs, s.RestoreOps)
	}

	return durableRecs, restoreRecs, errors.Join(errs...)
}

// CheckInvariantsQuiescent verifies the running invariants plus the
// stronger balance that only holds once the flush pipeline has drained
// (after WaitFlush): every accepted byte has a decided fate, and accepted
// bytes equal the checkpoint bytes the application observed.
func CheckInvariantsQuiescent(s Summary) error {
	return checkQuiescent(&s, s.Histograms, nil)
}

// checkQuiescent is CheckInvariantsQuiescent over what checkRunning
// reads.
func checkQuiescent[H histView](s *Summary, hists map[string]H, crit *critStore) error {
	var errs []error
	durableRecs, restoreRecs, err := checkRunning(s, hists, crit)
	if err != nil {
		errs = append(errs, err)
	}
	if s.ConservationTracked() {
		if pending := s.PendingFlushBytes(); pending != 0 {
			errs = append(errs, fmt.Errorf(
				"conservation: %d bytes still pending at quiescence — accepted(%d) != durable(%d)+discarded(%d)+lost(%d)",
				pending, s.AcceptedBytes, s.DurableBytes, s.DiscardedBytes, s.LostBytes))
		}
		if s.AcceptedBytes != s.CheckpointBytes {
			errs = append(errs, fmt.Errorf(
				"conservation: accepted bytes %d != checkpointed bytes %d",
				s.AcceptedBytes, s.CheckpointBytes))
		}
		// At quiescence the runtime has emitted every attribution record:
		// exactly one per durable version and one per restore, so every
		// durable checkpoint has a complete, fully attributed ledger.
		if durableRecs != s.DurableOps {
			errs = append(errs, fmt.Errorf(
				"critpath: %d durable records at quiescence for %d durable checkpoints",
				durableRecs, s.DurableOps))
		}
		if restoreRecs != s.RestoreOps {
			errs = append(errs, fmt.Errorf(
				"critpath: %d restore records at quiescence for %d restore ops",
				restoreRecs, s.RestoreOps))
		}
	}
	return errors.Join(errs...)
}
