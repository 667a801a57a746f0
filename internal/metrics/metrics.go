// Package metrics collects the performance measurements the paper's
// evaluation reports: application-observed checkpoint and restore
// throughput (total bytes divided by blocking time, §5.4.1), per-iteration
// restore rate, prefetch distance (§5.4.4), and I/O wait time.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Recorder accumulates measurements for one process (one GPU).
// All methods are safe for concurrent use.
//
// One mutex guards everything. The virtual clock runs one task at a time,
// so the application, flush workers, prefetcher and stager of a rank never
// contend for it; the lock only has to be correct, not fast.
type Recorder struct {
	mu sync.Mutex
	// s holds every counter, series, per-tier map and critical-path record
	// in its exported shape; its Histograms stay nil (see hists).
	s Summary
	// hists are the fixed-boundary latency histograms, keyed by the Hist*
	// constants.
	hists map[string]*Histogram
}

// ObserveDuration records one duration sample into the named
// fixed-boundary histogram (see the Hist* constants).
func (r *Recorder) ObserveDuration(name string, d time.Duration) {
	r.mu.Lock()
	r.observeLocked(name, d)
	r.mu.Unlock()
}

func (r *Recorder) observeLocked(name string, d time.Duration) {
	h := r.hists[name]
	if h == nil {
		if r.hists == nil {
			r.hists = map[string]*Histogram{}
		}
		h = NewHistogram()
		r.hists[name] = h
	}
	h.Observe(d)
}

// add adds v to the counter field points at, under the lock.
func (r *Recorder) add(field *int64, v int64) {
	r.mu.Lock()
	*field += v
	r.mu.Unlock()
}

// SeriesPoint is one restore operation's measurement.
type SeriesPoint struct {
	// Iteration is the restore index within the shot.
	Iteration int
	// Bytes restored by this operation.
	Bytes int64
	// Blocked is the application-observed blocking time.
	Blocked time.Duration
	// PrefetchDistance is the number of successor checkpoints already
	// resident on the fastest tier when this restore was issued.
	PrefetchDistance int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Checkpoint records one checkpoint operation that moved bytes and blocked
// the application for blocked.
func (r *Recorder) Checkpoint(bytes int64, blocked time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.CheckpointBytes += bytes
	r.s.CheckpointBlocked += blocked
	r.s.CheckpointOps++
	r.observeLocked(HistCheckpoint, blocked)
}

// CheckpointAccepted records bytes entering the flush pipeline. Paired
// with exactly one of ConserveDurable, ConserveDiscarded, ConserveLost or
// CheckpointRejected per checkpoint.
func (r *Recorder) CheckpointAccepted(bytes int64) { r.add(&r.s.AcceptedBytes, bytes) }

// CheckpointRejected un-accounts a previously accepted checkpoint whose
// admission ultimately failed (e.g. the synchronous-flush fallback could
// not land it anywhere).
func (r *Recorder) CheckpointRejected(bytes int64) { r.add(&r.s.AcceptedBytes, -bytes) }

// ConserveDurable records bytes whose flush chain reached a durable tier.
// Called exactly once per durable checkpoint version, which is what lets
// CheckInvariants demand one critical-path record per durable version.
func (r *Recorder) ConserveDurable(bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.DurableBytes += bytes
	r.s.DurableOps++
}

// ConserveDiscarded records bytes whose flush was skipped because the
// checkpoint was consumed first (§2 cond. 5) or its cached replica was
// released before the chain ran.
func (r *Recorder) ConserveDiscarded(bytes int64) { r.add(&r.s.DiscardedBytes, bytes) }

// ConserveLost records bytes whose flush chain was abandoned after
// exhausting every durable route.
func (r *Recorder) ConserveLost(bytes int64) { r.add(&r.s.LostBytes, bytes) }

// RetryBout records the outcome of one retried I/O sequence.
func (r *Recorder) RetryBout(recovered bool) {
	if recovered {
		r.add(&r.s.RetryBoutsRecovered, 1)
	} else {
		r.add(&r.s.RetryBoutsExhausted, 1)
	}
}

// Restore records one restore operation.
func (r *Recorder) Restore(iter int, bytes int64, blocked time.Duration, prefetchDistance int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.RestoreBytes += bytes
	r.s.RestoreBlocked += blocked
	r.s.RestoreOps++
	r.s.RestoreSeries = append(r.s.RestoreSeries, SeriesPoint{
		Iteration:        iter,
		Bytes:            bytes,
		Blocked:          blocked,
		PrefetchDistance: prefetchDistance,
	})
	r.observeLocked(HistRestore, blocked)
}

// EvictionWait accumulates time spent blocked on evictions.
func (r *Recorder) EvictionWait(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.EvictionWait += d
	r.observeLocked(HistEvictionWait, d)
}

// Deviation records a restore that was not the next hinted checkpoint.
func (r *Recorder) Deviation() { r.add(&r.s.DeviationReads, 1) }

// Retry records one retried I/O attempt against the named tier.
func (r *Recorder) Retry(tier string) { r.countTier(&r.s.Retries, tier) }

// Degradation records the named tier being marked degraded.
func (r *Recorder) Degradation(tier string) { r.countTier(&r.s.Degradations, tier) }

// TierRecovery records the named tier healing: a recovery probe
// succeeded after the tier had been marked degraded.
func (r *Recorder) TierRecovery(tier string) { r.countTier(&r.s.TierRecoveries, tier) }

// countTier adds one to tier's entry of the per-tier map m points at.
func (r *Recorder) countTier(m *map[string]int64, tier string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if *m == nil {
		*m = map[string]int64{}
	}
	(*m)[tier]++
}

// TierRecoveryCount returns the total healed degradations across tiers —
// a cheap accessor for sampler probes (Snapshot copies every series).
func (r *Recorder) TierRecoveryCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s.TotalTierRecoveries()
}

// PartnerCopy records one replica staged on the partner node's SSD.
func (r *Recorder) PartnerCopy(bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.PartnerCopies++
	r.s.PartnerCopyBytes += bytes
}

// PartnerCopyFailure records a partner replication attempt that failed.
func (r *Recorder) PartnerCopyFailure() { r.add(&r.s.PartnerCopyFailures, 1) }

// RankDeath records this rank being killed by fault injection.
func (r *Recorder) RankDeath() { r.add(&r.s.RankDeaths, 1) }

// DrainStart records a preemption notice initiating a deadline-bounded
// drain.
func (r *Recorder) DrainStart() { r.add(&r.s.Drains, 1) }

// DrainDeadline records whether the drain's triage finished inside its
// grace window. Called exactly once per drain.
func (r *Recorder) DrainDeadline(met bool) {
	if met {
		r.add(&r.s.DrainDeadlineHits, 1)
	}
}

// DrainFlushed records one version the drain triage made durable.
func (r *Recorder) DrainFlushed(bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.DrainedVersions++
	r.s.DrainedBytes += bytes
}

// DrainAbandoned records one version the drain failed open to ErrLost
// because it could not land inside the deadline budget.
func (r *Recorder) DrainAbandoned(bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.DrainAbandonedVersions++
	r.s.DrainAbandonedBytes += bytes
}

// MigrationStart records a live migration attempt to a successor node.
func (r *Recorder) MigrationStart() { r.add(&r.s.Migrations, 1) }

// MigrationCopy records one store version copied to the successor.
func (r *Recorder) MigrationCopy(bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.MigratedVersions++
	r.s.MigratedBytes += bytes
}

// MigrationFailure records a per-version migration copy that failed.
func (r *Recorder) MigrationFailure() { r.add(&r.s.MigrationFailures, 1) }

// HedgeLaunched records a hedge leg launched because the preferred
// tier's read exceeded its adaptive deadline.
func (r *Recorder) HedgeLaunched() { r.add(&r.s.HedgesLaunched, 1) }

// HedgeWin records a read won by a hedge leg: the data was served from
// the hedged (deeper) replica while the preferred tier was still busy.
func (r *Recorder) HedgeWin() { r.add(&r.s.HedgeWins, 1) }

// HedgeWasted records bytes moved by a race leg that lost: the transfer
// completed but its result was discarded.
func (r *Recorder) HedgeWasted(bytes int64) { r.add(&r.s.HedgeWastedBytes, bytes) }

// SLOAlertFired records one SLO objective window pair crossing its
// burn-rate threshold.
func (r *Recorder) SLOAlertFired() { r.add(&r.s.SLOAlertsFired, 1) }

// SLOAlertResolved records one firing SLO window pair dropping back
// below its burn-rate threshold.
func (r *Recorder) SLOAlertResolved() { r.add(&r.s.SLOAlertsResolved, 1) }

// TelemetryDrops mirrors the bounded telemetry rings' drop counts
// (Tracer.Dropped and FlightRecorder.TotalDropped) into the metrics
// books. The values are totals, not deltas — the latest call wins.
func (r *Recorder) TelemetryDrops(traceEvents, traceCounters, ledgerEvents int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.TraceEventsDropped = traceEvents
	r.s.TraceCountersDropped = traceCounters
	r.s.LedgerEventsDropped = ledgerEvents
}

// StallDetected records a background flush leg exceeding its adaptive
// deadline without failing — the gray-stall signal.
func (r *Recorder) StallDetected() { r.add(&r.s.StallsDetected, 1) }

// StallRerouted records a stalled flush successfully re-routed to an
// alternate durable tier.
func (r *Recorder) StallRerouted() { r.add(&r.s.StallsRerouted, 1) }

// HealthQuarantine records a tier quarantined because its EWMA latency
// health score breached the gray-failure threshold.
func (r *Recorder) HealthQuarantine() { r.add(&r.s.HealthQuarantines, 1) }

// FallbackRead records a read served from a deeper tier after a faster
// tier's replica failed or was missing.
func (r *Recorder) FallbackRead() { r.add(&r.s.FallbackReads, 1) }

// Repopulation records a replica re-staged into a faster tier after a
// fallback read recovered the bytes.
func (r *Recorder) Repopulation() { r.add(&r.s.Repopulations, 1) }

// FlushAbort records a flush chain abandoned after exhausting every
// durable route.
func (r *Recorder) FlushAbort() { r.add(&r.s.FlushAborts, 1) }

// SyncFlush records a checkpoint that bypassed the GPU cache via the
// synchronous-flush fallback.
func (r *Recorder) SyncFlush() { r.add(&r.s.SyncFlushes, 1) }

// Pipelined records one chunked multi-hop transfer stream: the bytes it
// moved, its end-to-end elapsed time, and the summed busy time of its
// hops (hopBusy > elapsed measures the overlap the pipelining won).
// hopBytes carries the payload observed per hop; for complete (error-free)
// streams every hop must have moved exactly bytes, which CheckInvariants
// verifies against the accumulated totals.
func (r *Recorder) Pipelined(bytes int64, elapsed, hopBusy time.Duration, hopBytes []int64, complete bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.PipelinedStreams++
	r.s.PipelinedBytes += bytes
	r.s.PipelinedElapsed += elapsed
	r.s.PipelinedHopBusy += hopBusy
	if complete {
		for _, hb := range hopBytes {
			r.s.PipelinedHopBytes += hb
		}
		r.s.PipelinedHopBytesWant += bytes * int64(len(hopBytes))
	}
}

// Summary is an immutable snapshot of a Recorder.
type Summary struct {
	CheckpointBytes   int64
	CheckpointBlocked time.Duration
	CheckpointOps     int64
	RestoreBytes      int64
	RestoreBlocked    time.Duration
	RestoreOps        int64
	RestoreSeries     []SeriesPoint
	EvictionWait      time.Duration
	DeviationReads    int64

	// Robustness counters.
	Retries        map[string]int64
	Degradations   map[string]int64
	TierRecoveries map[string]int64
	FallbackReads  int64
	Repopulations  int64
	FlushAborts    int64
	SyncFlushes    int64

	// Cluster failure model.
	PartnerCopies       int64
	PartnerCopyBytes    int64
	PartnerCopyFailures int64
	RankDeaths          int64

	// Scheduling events: deadline-bounded drain and live migration.
	Drains                 int64
	DrainDeadlineHits      int64
	DrainedVersions        int64
	DrainedBytes           int64
	DrainAbandonedVersions int64
	DrainAbandonedBytes    int64
	Migrations             int64
	MigratedVersions       int64
	MigratedBytes          int64
	MigrationFailures      int64

	// Chunked transfer pipelining (§4.3).
	PipelinedStreams int64
	PipelinedBytes   int64
	PipelinedElapsed time.Duration
	PipelinedHopBusy time.Duration

	// Per-hop byte conservation for complete pipelined streams.
	PipelinedHopBytes     int64
	PipelinedHopBytesWant int64

	// Conservation (fate) accounting; see CheckInvariants.
	AcceptedBytes  int64
	DurableBytes   int64
	DiscardedBytes int64
	LostBytes      int64

	// Retry bout outcomes.
	RetryBoutsRecovered int64
	RetryBoutsExhausted int64

	// Gray-failure tolerance (DESIGN.md §16).
	HedgesLaunched    int64
	HedgeWins         int64
	HedgeWastedBytes  int64
	StallsDetected    int64
	StallsRerouted    int64
	HealthQuarantines int64

	// SLO alert transitions and telemetry-drop gauges (DESIGN.md §17).
	SLOAlertsFired       int64
	SLOAlertsResolved    int64
	TraceEventsDropped   int64
	TraceCountersDropped int64
	LedgerEventsDropped  int64

	// Critical-path attribution records and the durable-fate op count
	// they are balanced against (see critpath.go, CheckInvariants).
	CritPaths  []CritPathRecord `json:",omitempty"`
	DurableOps int64

	// Fixed-boundary latency histograms keyed by the Hist* constants.
	Histograms map[string]HistogramSnapshot `json:",omitempty"`
}

// PendingFlushBytes returns accepted bytes whose fate has not been decided
// yet. It is zero at quiescence (after WaitFlush / Close).
func (s Summary) PendingFlushBytes() int64 {
	return s.AcceptedBytes - s.DurableBytes - s.DiscardedBytes - s.LostBytes
}

// ConservationTracked reports whether this summary came from a runtime
// that performs fate accounting (the Score runtime does; the baseline
// runtimes only keep throughput counters).
func (s Summary) ConservationTracked() bool {
	return s.AcceptedBytes != 0 || s.DurableBytes != 0 || s.DiscardedBytes != 0 || s.LostBytes != 0
}

// PipelineOverlap returns the total simulated transfer time hidden by
// chunked multi-hop streaming: summed per-hop busy time minus summed
// end-to-end elapsed time, clamped at zero.
func (s Summary) PipelineOverlap() time.Duration {
	if s.PipelinedHopBusy > s.PipelinedElapsed {
		return s.PipelinedHopBusy - s.PipelinedElapsed
	}
	return 0
}

// TotalRetries sums retried I/O attempts across tiers.
func (s Summary) TotalRetries() int64 {
	var t int64
	for _, n := range s.Retries {
		t += n
	}
	return t
}

// TotalDegradations sums degradation events across tiers.
func (s Summary) TotalDegradations() int64 {
	var t int64
	for _, n := range s.Degradations {
		t += n
	}
	return t
}

// TotalTierRecoveries sums healed degradations across tiers.
func (s Summary) TotalTierRecoveries() int64 {
	var t int64
	for _, n := range s.TierRecoveries {
		t += n
	}
	return t
}

// Snapshot returns the current totals as a Summary that shares no
// memory with the recorder: later records do not change it, and writes
// to it do not reach the recorder.
func (r *Recorder) Snapshot() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.s
	s.RestoreSeries = make([]SeriesPoint, len(r.s.RestoreSeries))
	copy(s.RestoreSeries, r.s.RestoreSeries)
	s.Retries = copyCounts(r.s.Retries)
	s.Degradations = copyCounts(r.s.Degradations)
	s.TierRecoveries = copyCounts(r.s.TierRecoveries)
	s.CritPaths = copyCritPaths(r.s.CritPaths)
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

func copyCounts(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// CheckpointThroughput returns application-observed write throughput in
// bytes/second (total size over blocking time, §5.4.1).
func (s Summary) CheckpointThroughput() float64 {
	return throughput(s.CheckpointBytes, s.CheckpointBlocked)
}

// RestoreThroughput returns application-observed read throughput.
func (s Summary) RestoreThroughput() float64 {
	return throughput(s.RestoreBytes, s.RestoreBlocked)
}

// MeanPrefetchDistance averages the prefetch distance over all restores.
func (s Summary) MeanPrefetchDistance() float64 {
	if len(s.RestoreSeries) == 0 {
		return 0
	}
	var sum int
	for _, p := range s.RestoreSeries {
		sum += p.PrefetchDistance
	}
	return float64(sum) / float64(len(s.RestoreSeries))
}

func throughput(bytes int64, blocked time.Duration) float64 {
	if blocked <= 0 {
		if bytes > 0 {
			return float64(bytes) * 1e9 // effectively instant
		}
		return 0
	}
	return float64(bytes) / blocked.Seconds()
}

// Merge combines summaries from multiple processes: byte and time totals
// add; series concatenate sorted by iteration.
func Merge(parts ...Summary) Summary {
	var out Summary
	for _, p := range parts {
		out.CheckpointBytes += p.CheckpointBytes
		out.CheckpointBlocked += p.CheckpointBlocked
		out.CheckpointOps += p.CheckpointOps
		out.RestoreBytes += p.RestoreBytes
		out.RestoreBlocked += p.RestoreBlocked
		out.RestoreOps += p.RestoreOps
		out.EvictionWait += p.EvictionWait
		out.DeviationReads += p.DeviationReads
		out.RestoreSeries = append(out.RestoreSeries, p.RestoreSeries...)
		out.FallbackReads += p.FallbackReads
		out.Repopulations += p.Repopulations
		out.FlushAborts += p.FlushAborts
		out.SyncFlushes += p.SyncFlushes
		out.PartnerCopies += p.PartnerCopies
		out.PartnerCopyBytes += p.PartnerCopyBytes
		out.PartnerCopyFailures += p.PartnerCopyFailures
		out.RankDeaths += p.RankDeaths
		out.Drains += p.Drains
		out.DrainDeadlineHits += p.DrainDeadlineHits
		out.DrainedVersions += p.DrainedVersions
		out.DrainedBytes += p.DrainedBytes
		out.DrainAbandonedVersions += p.DrainAbandonedVersions
		out.DrainAbandonedBytes += p.DrainAbandonedBytes
		out.Migrations += p.Migrations
		out.MigratedVersions += p.MigratedVersions
		out.MigratedBytes += p.MigratedBytes
		out.MigrationFailures += p.MigrationFailures
		out.PipelinedStreams += p.PipelinedStreams
		out.PipelinedBytes += p.PipelinedBytes
		out.PipelinedElapsed += p.PipelinedElapsed
		out.PipelinedHopBusy += p.PipelinedHopBusy
		out.PipelinedHopBytes += p.PipelinedHopBytes
		out.PipelinedHopBytesWant += p.PipelinedHopBytesWant
		out.AcceptedBytes += p.AcceptedBytes
		out.DurableBytes += p.DurableBytes
		out.DiscardedBytes += p.DiscardedBytes
		out.LostBytes += p.LostBytes
		out.RetryBoutsRecovered += p.RetryBoutsRecovered
		out.RetryBoutsExhausted += p.RetryBoutsExhausted
		out.HedgesLaunched += p.HedgesLaunched
		out.HedgeWins += p.HedgeWins
		out.HedgeWastedBytes += p.HedgeWastedBytes
		out.StallsDetected += p.StallsDetected
		out.StallsRerouted += p.StallsRerouted
		out.HealthQuarantines += p.HealthQuarantines
		out.SLOAlertsFired += p.SLOAlertsFired
		out.SLOAlertsResolved += p.SLOAlertsResolved
		out.TraceEventsDropped += p.TraceEventsDropped
		out.TraceCountersDropped += p.TraceCountersDropped
		out.LedgerEventsDropped += p.LedgerEventsDropped
		out.CritPaths = append(out.CritPaths, copyCritPaths(p.CritPaths)...)
		out.DurableOps += p.DurableOps
		for name, h := range p.Histograms {
			if out.Histograms == nil {
				out.Histograms = map[string]HistogramSnapshot{}
			}
			merged, err := out.Histograms[name].merge(h)
			if err == nil {
				out.Histograms[name] = merged
			}
		}
		for k, v := range p.Retries {
			if out.Retries == nil {
				out.Retries = map[string]int64{}
			}
			out.Retries[k] += v
		}
		for k, v := range p.Degradations {
			if out.Degradations == nil {
				out.Degradations = map[string]int64{}
			}
			out.Degradations[k] += v
		}
		for k, v := range p.TierRecoveries {
			if out.TierRecoveries == nil {
				out.TierRecoveries = map[string]int64{}
			}
			out.TierRecoveries[k] += v
		}
	}
	sort.SliceStable(out.RestoreSeries, func(i, j int) bool {
		return out.RestoreSeries[i].Iteration < out.RestoreSeries[j].Iteration
	})
	sortCritPaths(out.CritPaths)
	return out
}

// FormatBytesPerSec renders a throughput human-readably (e.g. "25.0 GB/s").
func FormatBytesPerSec(bps float64) string {
	const (
		kb = 1 << 10
		mb = 1 << 20
		gb = 1 << 30
		tb = 1 << 40
	)
	switch {
	case bps >= tb:
		return fmt.Sprintf("%.2f TB/s", bps/tb)
	case bps >= gb:
		return fmt.Sprintf("%.2f GB/s", bps/gb)
	case bps >= mb:
		return fmt.Sprintf("%.2f MB/s", bps/mb)
	case bps >= kb:
		return fmt.Sprintf("%.2f KB/s", bps/kb)
	default:
		return fmt.Sprintf("%.0f B/s", bps)
	}
}
