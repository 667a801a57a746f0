package score

import (
	"fmt"
	"time"

	"score/internal/core"
	"score/internal/device"
	"score/internal/faultinject"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/predict"
	"score/internal/simclock"
	"score/internal/slo"
)

// ClientOption configures one process's runtime.
type ClientOption func(*clientConfig)

type clientConfig struct {
	gpuCache      int64
	hostCache     int64
	discard       bool
	persistPFS    bool
	asyncHostInit bool
	storeDir      string
	pfsStoreDir   string
	scrubOnOpen   bool
	autoHints     bool
	gpuDirect     bool
	chunkSize     int64
	flushStreams  int
	injector      *faultinject.Injector
	partnerDir    string
	tracker       *CommitTracker
	rank          int
	evictPolicy   string
	hedge         bool
	slo           *slo.Engine
}

// WithGPUCache sets the device cache reservation (default 4 GiB, the
// paper's 10% of an A100).
func WithGPUCache(bytes int64) ClientOption {
	return func(c *clientConfig) { c.gpuCache = bytes }
}

// WithHostCache sets the pinned host cache reservation (default 32 GiB).
func WithHostCache(bytes int64) ClientOption {
	return func(c *clientConfig) { c.hostCache = bytes }
}

// WithDiscardAfterRestore marks consumed checkpoints discardable: their
// pending flushes are cancelled. Use for adjoint workloads that never
// revisit a consumed checkpoint.
func WithDiscardAfterRestore() ClientOption {
	return func(c *clientConfig) { c.discard = true }
}

// WithPersistToPFS extends the flush chain past the node-local SSD to the
// shared parallel file system.
func WithPersistToPFS() ClientOption {
	return func(c *clientConfig) { c.persistPFS = true }
}

// WithAsyncHostInit overlaps the slow pinned host cache registration with
// the start of the run (the paper's measured behavior) instead of paying
// it during NewClient.
func WithAsyncHostInit() ClientOption {
	return func(c *clientConfig) { c.asyncHostInit = true }
}

// WithGPUDirect flushes GPU→SSD and prefetches SSD→GPU directly,
// bypassing the host cache tier (the paper's GPUDirect-storage
// future-work item).
func WithGPUDirect() ClientOption {
	return func(c *clientConfig) { c.gpuDirect = true }
}

// WithAutoHints attaches a stride predictor to the restore stream: when
// the application provides no explicit hints but reads sequentially, in
// reverse, or with a constant stride, the predictor recognizes the
// pattern after three restores and feeds extrapolated hints to the
// prefetcher — the "higher-level I/O middleware" hinting of §4.1.1.
// Implies auto-started prefetching. Predictions are advisory: a wrong
// guess costs bandwidth, never correctness.
func WithAutoHints() ClientOption {
	return func(c *clientConfig) { c.autoHints = true }
}

// WithStore makes the SSD tier durable at dir: checkpoints written with
// real data persist to disk (CRC-protected files), and a new client
// opened on the same directory recovers them — restartable across
// process crashes. See Client.RecoveredVersions.
func WithStore(dir string) ClientOption {
	return func(c *clientConfig) { c.storeDir = dir }
}

// WithPFSStore makes the PFS tier durable at dir, the deepest rung of the
// degradation ladder: flushes persist there in addition to the SSD store,
// and a failed or corrupt SSD read transparently falls back to the PFS
// copy (re-staging it onto the SSD when possible). Implies
// WithPersistToPFS. The directory is normally on the shared parallel file
// system, so every client (across restarts) opens the same path.
func WithPFSStore(dir string) ClientOption {
	return func(c *clientConfig) {
		c.pfsStoreDir = dir
		c.persistPFS = true
	}
}

// WithScrubOnOpen quarantines (renames to .corrupt) any invalid
// checkpoint files found when opening a durable store instead of refusing
// to start — the repair path after a crash left torn or corrupt files
// behind. Quarantined versions are reported by Client.QuarantinedVersions
// and, when a PFS store holds a good copy, remain restorable.
func WithScrubOnOpen() ClientOption {
	return func(c *clientConfig) { c.scrubOnOpen = true }
}

// WithChunkSize streams every multi-hop flush and promotion as a
// pipeline of chunk-sized pieces with consecutive hops overlapped
// (§4.3): chunk i moves on the second hop (e.g. NVMe) while chunk i+1
// moves on the first (PCIe), so a GPU→SSD flush approaches
// max(hop time) instead of the sum of hop times. Each stream holds one
// of the GPU's copy engines for its duration. 0 (the default) keeps the
// monolithic store-and-forward transfers.
func WithChunkSize(bytes int64) ClientOption {
	return func(c *clientConfig) { c.chunkSize = bytes }
}

// WithEvictionPolicy selects the GPU cache eviction policy by name:
// "score" (the paper's gap-aware sliding window, the default), the
// baselines "lru" and "fifo", or the DBMS-inspired "arc" (DESIGN.md
// §15). NewClient fails on an unknown name.
func WithEvictionPolicy(name string) ClientOption {
	return func(c *clientConfig) { c.evictPolicy = name }
}

// WithFlushStreams sets the worker count of each flusher stage pool
// (T_D2H and T_H2F). The default (0) uses one worker per stage without
// chunked streaming — the paper's single flusher thread per stage — and
// the GPU's copy-engine count when WithChunkSize is enabled. A
// preemption drain's flushes run on the T_H2F pool and share its width.
func WithFlushStreams(n int) ClientOption {
	return func(c *clientConfig) { c.flushStreams = n }
}

// WithHedgedRestores enables gray-failure tolerance: deep restores race
// a hedge leg against the next-deeper replica (SSD → partner SSD → PFS)
// once the running leg exceeds its adaptive deadline — the online
// estimate for its link class — background flush legs that stall past
// their deadline re-route to an alternate durable tier, and link classes
// whose EWMA health score breaches the quarantine threshold are taken
// out of rotation until probes show them recovered. First success wins;
// every checkpoint still gets exactly one fate and restores never see
// wrong bytes. Off by default: without it (and without injected gray
// faults) the runtime behaves byte-identically to the sequential ladder.
func WithHedgedRestores() ClientOption {
	return func(c *clientConfig) { c.hedge = true }
}

// WithSLO attaches an SLO engine (built with Sim.NewSLOEngine):
// the runtime feeds it every finished critical-path record and drain
// outcome for online burn-rate evaluation against its objectives. Pure
// observation — attaching an engine never perturbs scheduling or
// timing, only evaluates it.
func WithSLO(eng *slo.Engine) ClientOption {
	return func(c *clientConfig) { c.slo = eng }
}

// WithFaultInjector attaches a fault-injection schedule (see
// internal/faultinject) to every I/O site this client touches: its PCIe
// copy engine and host allocations, the node's NVMe and PFS links, and
// the durable stores. The NVMe and PFS links are shared node resources,
// so an injector installed by one client intercepts every client on the
// node — install the same injector (or none) on all of them.
func WithFaultInjector(inj *faultinject.Injector) ClientOption {
	return func(c *clientConfig) { c.injector = inj }
}

// Client is one process's checkpointing runtime: the VELOC-style API of
// the paper (Listing 1) with the two new prefetching primitives.
type Client struct {
	inner       *core.Client
	dev         *device.GPU
	clk         *simclock.Virtual
	predictor   *predict.Predictor // nil unless WithAutoHints
	quarantined []int64            // versions scrubbed at open (WithScrubOnOpen)
	node        int                // node index, for migration path construction
	inj         *faultinject.Injector

	drainManifest DrainManifest // last drain's manifest (timer- or call-driven)
	drainDone     bool
}

// Checkpoint writes version with real data. It blocks only until the data
// is copied into the GPU cache; flushing to the slower tiers proceeds in
// the background (VELOC_Checkpoint).
func (c *Client) Checkpoint(version int64, data []byte) error {
	return c.inner.Checkpoint(core.ID(version), payload.NewReal(data))
}

// CheckpointVirtual writes a size-only checkpoint (for large-scale
// benchmarking where materializing the bytes is pointless).
func (c *Client) CheckpointVirtual(version int64, size int64) error {
	return c.inner.Checkpoint(core.ID(version), payload.NewVirtual(size))
}

// Restart reads version back into the application buffer, blocking until
// the data is on the GPU (VELOC_Restart). For checkpoints written with
// Checkpoint it returns the original bytes, checksum-verified.
func (c *Client) Restart(version int64) ([]byte, error) {
	if c.predictor != nil {
		c.predictor.Observe(version)
	}
	pay, err := c.inner.Restore(core.ID(version))
	if err != nil {
		return nil, err
	}
	data := pay.Bytes()
	if data == nil {
		// Recovered payloads load lazily from the durable stores; a nil
		// result may be a load failure rather than a virtual checkpoint.
		// Surface it as a definitive error instead of (nil, nil).
		if lp, ok := pay.(interface{ LoadErr() error }); ok {
			if err := lp.LoadErr(); err != nil {
				return nil, fmt.Errorf("score: restart %d: %w", version, err)
			}
		}
	}
	if data != nil {
		if err := payload.Verify(pay, data); err != nil {
			return nil, fmt.Errorf("score: restart %d: %w", version, err)
		}
	}
	return data, nil
}

// RestartSize returns a checkpoint's size (VELOC_Recover_size).
func (c *Client) RestartSize(version int64) (int64, error) {
	return c.inner.RestoreSize(core.ID(version))
}

// PrefetchEnqueue hints that version will be restored after all
// previously hinted versions (VELOC_Prefetch_enqueue). Hints are
// advisory and cannot be revoked.
func (c *Client) PrefetchEnqueue(version int64) {
	c.inner.PrefetchEnqueue(core.ID(version))
}

// PrefetchStart begins asynchronous prefetching (VELOC_Prefetch_start);
// useful to keep prefetches from competing with the forward pass's
// flushes.
func (c *Client) PrefetchStart() { c.inner.PrefetchStart() }

// WaitFlush blocks until every written checkpoint has drained to the
// node-local SSD (and the PFS when persistence is enabled).
func (c *Client) WaitFlush() error { return c.inner.WaitFlush() }

// Compute emulates computation for d of simulated time.
func (c *Client) Compute(d time.Duration) { c.dev.Compute(d) }

// Close stops the client's background flusher and prefetcher tasks.
func (c *Client) Close() { c.inner.Close() }

// Err returns the first asynchronous runtime failure, if any.
func (c *Client) Err() error { return c.inner.Err() }

// Stats summarizes the client's measurements.
type Stats struct {
	// CheckpointBytes and RestoreBytes are totals moved by the API.
	CheckpointBytes, RestoreBytes int64
	// CheckpointOps and RestoreOps count operations.
	CheckpointOps, RestoreOps int64
	// CheckpointThroughput and RestoreThroughput are the application-
	// observed rates in bytes per simulated second (total size over
	// blocking time, the paper's §5.4.1 metric).
	CheckpointThroughput, RestoreThroughput float64
	// MeanPrefetchDistance is the average number of successor
	// checkpoints already resident on the GPU at each restore (§5.4.4).
	MeanPrefetchDistance float64
	// DeviationReads counts restores that departed from the hint order.
	DeviationReads int64
	// Retries counts I/O attempts repeated after a transient failure,
	// across all tiers.
	Retries int64
	// Degradations counts tiers this client marked unusable after
	// retries were exhausted.
	Degradations int64
	// FallbackReads counts reads served from a deeper tier because the
	// preferred tier failed or lost the copy.
	FallbackReads int64
	// Repopulations counts replicas re-staged into a faster tier after a
	// fallback read.
	Repopulations int64
	// FlushAborts counts checkpoints whose every durable route failed;
	// their cached replica becomes sacrificial (Restore may report a
	// definitive loss, but the cache never wedges).
	FlushAborts int64
	// SyncFlushes counts checkpoints that bypassed the GPU cache with a
	// synchronous flush under device-memory pressure (§2 condition 4).
	SyncFlushes int64
	// PipelinedStreams counts chunked multi-hop transfer streams (always
	// 0 without WithChunkSize).
	PipelinedStreams int64
	// PipelineOverlap is the total simulated transfer time hidden by
	// pipelining chunks across consecutive hops.
	PipelineOverlap time.Duration
	// TierRecoveries counts degraded tiers this client healed after a
	// recovery probe succeeded.
	TierRecoveries int64
	// PartnerCopies and PartnerCopyBytes count replicas staged on the
	// partner node's SSD (WithPartnerCopy); PartnerCopyFailures counts
	// replication attempts that failed.
	PartnerCopies, PartnerCopyBytes, PartnerCopyFailures int64
	// RankDeaths is 1 once this rank was killed by fault injection.
	RankDeaths int64
	// Drains counts preemption drains begun; DrainDeadlineHits how many
	// finished inside their grace window.
	Drains, DrainDeadlineHits int64
	// DrainedVersions/DrainedBytes count state the drain triage made
	// durable; DrainAbandonedVersions/DrainAbandonedBytes count state it
	// failed open to ErrLost because the deadline budget ran out.
	DrainedVersions, DrainedBytes               int64
	DrainAbandonedVersions, DrainAbandonedBytes int64
	// Migrations counts live tier migrations begun; MigratedVersions and
	// MigratedBytes what they copied to the successor;
	// MigrationFailures per-version copies that failed through retries.
	Migrations, MigratedVersions, MigratedBytes, MigrationFailures int64
	// HedgesLaunched counts hedge legs launched against a deeper replica
	// after a deep read ran past its adaptive deadline
	// (WithHedgedRestores); HedgeWins how many of those hedge legs won
	// their race; HedgeWastedBytes the bytes moved by legs that lost.
	HedgesLaunched, HedgeWins, HedgeWastedBytes int64
	// StallsDetected counts background flush legs that ran past their
	// adaptive deadline without failing (gray stalls); StallsRerouted how
	// many of those flushes went durable on an alternate tier instead.
	StallsDetected, StallsRerouted int64
	// HealthQuarantines counts tiers taken out of rotation because their
	// EWMA health score breached — gray failures, where operations
	// succeed but run far slower than nominal.
	HealthQuarantines int64
}

// PredictedHints reports how many hints the auto-hint predictor has
// issued (0 without WithAutoHints).
func (c *Client) PredictedHints() int64 {
	if c.predictor == nil {
		return 0
	}
	return c.predictor.Emitted()
}

// RecoveredVersions lists the checkpoint versions recovered from the
// durable store (WithStore) when the client was created, ascending.
func (c *Client) RecoveredVersions() []int64 {
	ids := c.inner.Recovered()
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// Stats returns the client's measurements so far.
func (c *Client) Stats() (st Stats) {
	c.inner.Metrics().Read(func(s *metrics.Summary) { st = statsOf(s) })
	return st
}

// statsOf derives the compact view from a summary's books.
func statsOf(s *metrics.Summary) Stats {
	return Stats{
		CheckpointBytes:        s.CheckpointBytes,
		RestoreBytes:           s.RestoreBytes,
		CheckpointOps:          s.CheckpointOps,
		RestoreOps:             s.RestoreOps,
		CheckpointThroughput:   s.CheckpointThroughput(),
		RestoreThroughput:      s.RestoreThroughput(),
		MeanPrefetchDistance:   s.MeanPrefetchDistance(),
		DeviationReads:         s.DeviationReads,
		Retries:                s.TotalRetries(),
		Degradations:           s.TotalDegradations(),
		FallbackReads:          s.FallbackReads,
		Repopulations:          s.Repopulations,
		FlushAborts:            s.FlushAborts,
		SyncFlushes:            s.SyncFlushes,
		PipelinedStreams:       s.PipelinedStreams,
		PipelineOverlap:        s.PipelineOverlap(),
		TierRecoveries:         s.TotalTierRecoveries(),
		PartnerCopies:          s.PartnerCopies,
		PartnerCopyBytes:       s.PartnerCopyBytes,
		PartnerCopyFailures:    s.PartnerCopyFailures,
		RankDeaths:             s.RankDeaths,
		Drains:                 s.Drains,
		DrainDeadlineHits:      s.DrainDeadlineHits,
		DrainedVersions:        s.DrainedVersions,
		DrainedBytes:           s.DrainedBytes,
		DrainAbandonedVersions: s.DrainAbandonedVersions,
		DrainAbandonedBytes:    s.DrainAbandonedBytes,
		Migrations:             s.Migrations,
		MigratedVersions:       s.MigratedVersions,
		MigratedBytes:          s.MigratedBytes,
		MigrationFailures:      s.MigrationFailures,
		HedgesLaunched:         s.HedgesLaunched,
		HedgeWins:              s.HedgeWins,
		HedgeWastedBytes:       s.HedgeWastedBytes,
		StallsDetected:         s.StallsDetected,
		StallsRerouted:         s.StallsRerouted,
		HealthQuarantines:      s.HealthQuarantines,
	}
}

// MetricsSummary returns the full internal metrics snapshot — latency
// histograms, conservation accounting, robustness counters — for
// exporters and invariant checks. Stats remains the compact view.
func (c *Client) MetricsSummary() metrics.Summary {
	return c.inner.Metrics().Snapshot()
}

// CheckMetricsInvariants verifies the runtime's structural metric
// invariants (byte conservation bounds, retry-bout bounds, histogram
// consistency). With quiescent set it additionally asserts the flush
// pipeline fully drained — valid only after WaitFlush and before Close.
func (c *Client) CheckMetricsInvariants(quiescent bool) error {
	if quiescent {
		return c.inner.CheckInvariantsQuiescent()
	}
	return c.inner.CheckInvariants()
}

// DegradedTiers lists the tiers this client has stopped using after
// persistent failures ("ssd", "host", ...), in flush order. Empty means
// the full pipeline is healthy.
func (c *Client) DegradedTiers() []string {
	tiers := c.inner.DegradedTiers()
	out := make([]string, len(tiers))
	for i, t := range tiers {
		out[i] = t.String()
	}
	return out
}

// QuarantinedVersions lists the checkpoint versions whose durable files
// were quarantined by WithScrubOnOpen when this client opened its stores,
// ascending. A version with a healthy copy in the PFS store is still
// restorable despite appearing here.
func (c *Client) QuarantinedVersions() []int64 {
	out := make([]int64, len(c.quarantined))
	copy(out, c.quarantined)
	return out
}
