// Package core implements Score, the paper's asynchronous multi-level
// checkpoint caching and prefetching runtime (§4). One Client serves one
// process (one GPU): it manages a pre-allocated GPU cache and pinned host
// cache (§4.1.4), flushes checkpoints asynchronously down the tier chain
// (GPU → host → node-local SSD → optional PFS) with dedicated background
// tasks (T_D2H, T_H2F, §4.3.1), and prefetches checkpoints back up the
// chain (T_PF) following the application's restore-order hints (§4.1.1).
// Evictions on the cache tiers use the gap-aware score-based policy of
// §4.2 via internal/cachebuf, with evictability governed by the per-
// replica life-cycle FSM of Figure 1 via internal/lifecycle.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"score/internal/cachebuf"
	"score/internal/ckptstore"
	"score/internal/device"
	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/simclock"
	"score/internal/trace"
)

// ID identifies a checkpoint version within one client.
type ID int64

// Tier enumerates the storage hierarchy levels.
type Tier int

const (
	// TierGPU is the per-process GPU HBM cache (fastest).
	TierGPU Tier = iota
	// TierHost is the per-process pinned host-memory cache.
	TierHost
	// TierSSD is the node-local NVMe tier, shared by co-located
	// processes.
	TierSSD
	// TierPartner is a replica staged on a partner node's SSD over the
	// inter-node fabric (SCR/VELOC partner-copy). Slower to reach than
	// the local SSD, faster than the PFS, and — unlike the local SSD —
	// it survives the loss of this whole node.
	TierPartner
	// TierPFS is the globally shared parallel file system (slowest).
	TierPFS
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierGPU:
		return "gpu"
	case TierHost:
		return "host"
	case TierSSD:
		return "ssd"
	case TierPartner:
		return "partner"
	case TierPFS:
		return "pfs"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Errors returned by Client operations.
var (
	// ErrUnknownCheckpoint: restore of a version that was never written.
	ErrUnknownCheckpoint = errors.New("core: unknown checkpoint")
	// ErrClosed: the client has been closed.
	ErrClosed = errors.New("core: client closed")
	// ErrDuplicateCheckpoint: a version was written twice (checkpoints
	// are immutable, §1).
	ErrDuplicateCheckpoint = errors.New("core: checkpoint version already written")
	// ErrKilled: the rank was killed by fault injection; the process is
	// gone and every subsequent call fails.
	ErrKilled = errors.New("core: rank killed")
)

// CommitHook receives a rank's per-version durability transitions, one
// call per (rank, version) fate. internal/coord implements it for
// cluster-wide group commit; core only reports, it never blocks on the
// hook, so implementations must be non-blocking and concurrency-safe.
type CommitHook interface {
	// MarkDurable: the rank holds version at a durable tier.
	MarkDurable(rank int, version int64)
	// MarkLost: the rank's copy of version is gone before ever becoming
	// durable (flush chain aborted, or the process died with it).
	MarkLost(rank int, version int64)
	// RankDead: the rank's process died.
	RankDead(rank int)
}

// SLOSink receives the observations the SLO engine evaluates: finished
// critical-path records (restore blocking, time-to-durable) and
// preemption-drain outcomes. internal/slo implements it; core only
// defines the interface so the dependency points outward. Calls happen
// on the hot paths under the virtual clock, so implementations must be
// non-blocking and concurrency-safe.
type SLOSink interface {
	ObserveCritPath(rec metrics.CritPathRecord)
	ObserveDrain(met bool)
}

// Params configures a Client.
type Params struct {
	// Clock drives all timing; required.
	Clock simclock.Clock
	// GPU is the simulated device this process owns; required.
	GPU *device.GPU
	// NVMe is the node-shared SSD link; required.
	NVMe *fabric.Link
	// PFS is the cluster-shared parallel file system link; required
	// when PersistToPFS is set, optional otherwise.
	PFS *fabric.Link

	// GPUCacheSize is the device cache reservation in bytes (paper
	// default: 4 GiB, 10% of an A100).
	GPUCacheSize int64
	// HostCacheSize is the pinned host cache reservation in bytes
	// (paper default: 32 GiB per process).
	HostCacheSize int64

	// DiscardAfterRestore makes consumed checkpoints discardable:
	// pending flushes are cancelled (§2 condition 5) and any replica
	// becomes evictable. This matches adjoint workloads; reproducibility
	// workloads set it to false.
	DiscardAfterRestore bool
	// PersistToPFS extends the flush chain beyond the node-local SSD.
	PersistToPFS bool
	// AutoStartPrefetch activates the prefetcher as soon as hints are
	// available instead of waiting for PrefetchStart (the paper's
	// VELOC_Prefetch_start is optional).
	AutoStartPrefetch bool
	// AsyncHostInit overlaps the expensive pinned host cache
	// registration (§4.1.4: ~4 GB/s) with the start of the run; the
	// host tier only becomes usable once registration completes. When
	// false, New blocks for the registration time instead.
	AsyncHostInit bool

	// The remaining options disable individual design principles for the
	// ablation benchmarks; production use leaves them all false.

	// SplitCache abandons §4.1.2's shared flush/prefetch cache: the GPU
	// cache is split into two half-size regions, one dedicated to
	// writes and one to prefetches ("a naive strategy could simply
	// manage a separate space on each tier").
	SplitCache bool
	// NoPinning abandons §4.1.3's unified life cycle: prefetched-but-
	// unconsumed replicas become evictable (risking thrashing), as when
	// flushing and prefetching are tracked independently.
	NoPinning bool
	// OnDemandAlloc abandons §4.1.4's pre-allocated pinned buffers:
	// every flush pays the pinned host allocation cost (~4 GB/s) and
	// every checkpoint the device allocation cost for its own region.
	OnDemandAlloc bool
	// GPUEvictionPolicy overrides the GPU cache eviction policy for the
	// ablation benchmarks (default: the paper's scored policy).
	GPUEvictionPolicy cachebuf.Policy
	// NoHostStager disables the SSD→host prefetch stage of T_PF,
	// serializing both promotion hops inside each GPU promotion.
	NoHostStager bool
	// SharedHost, when set, replaces the per-process pinned host cache
	// with a pool shared by every client registered to it (the paper's
	// future-work load balancing for variable-sized checkpoints);
	// HostCacheSize is then ignored.
	SharedHost *SharedHostCache
	// GPUDirectStorage implements the paper's future-work item
	// ("incorporate support for Nvidia GPUDirect storage"): flushes move
	// GPU→SSD and prefetches SSD→GPU directly, without staging through
	// the pinned host cache. The host tier is bypassed entirely; the
	// trade-off is losing its capacity as a middle cache level.
	GPUDirectStorage bool

	// Tracer, when set, records checkpoint/restore/flush/prefetch spans
	// on the simulated timeline for Chrome-trace export. Nil disables
	// tracing with zero overhead.
	Tracer *trace.Tracer

	// SLO, when set, receives every finished critical-path record and
	// drain outcome for online burn-rate evaluation (internal/slo,
	// DESIGN.md §17). Nil disables SLO evaluation with zero overhead —
	// the hot paths pay exactly one nil check.
	SLO SLOSink

	// Store, when set, makes the SSD tier genuinely durable for real
	// (byte-backed) payloads: flushes that reach the SSD persist the
	// bytes, and New recovers the checkpoint table from whatever the
	// store holds — the VELOC-style restart-after-failure capability.
	// Virtual (size-only) payloads are simulated as before.
	Store *ckptstore.Store
	// PFSStore, when set, makes the PFS tier durable the same way:
	// flushes that reach the PFS persist real payload bytes there, New
	// recovers from it, and a failed or corrupt SSD read transparently
	// falls back to it (re-populating the SSD copy on success). Requires
	// the PFS link.
	PFSStore *ckptstore.Store

	// ChunkSize, when positive, streams every multi-hop transfer (flushes
	// down the tier chain and promotions back up) as a pipeline of
	// chunk-sized pieces with consecutive hops overlapped (§4.3): chunk i
	// moves on the second hop while chunk i+1 moves on the first, and the
	// whole stream holds one of the GPU's copy engines. 0 keeps every
	// transfer monolithic — the exact seed timing.
	ChunkSize int64
	// FlushStreams sets the worker count of each flusher stage pool
	// (T_D2H and T_H2F). 0 resolves to one worker per stage when
	// ChunkSize is 0 (the seed behavior) and to the GPU's copy-engine
	// count when chunked streaming is enabled.
	FlushStreams int

	// Retry tunes the exponential-backoff retry applied to transient
	// tier-I/O failures; zero fields take the defaults.
	Retry RetryPolicy
	// Hedge enables gray-failure tolerance: deep restores race a hedge
	// leg against the next-deeper replica once the current leg exceeds
	// its adaptive deadline (the online healthy-cost estimate for its link
	// class),
	// background flush legs that stall past their deadline re-route to an
	// alternate durable tier, and link classes whose EWMA health score
	// breaches the quarantine threshold are taken out of rotation until a
	// probe reinstates them. First success wins and every checkpoint still
	// gets exactly one fate. Off (the default) the runtime is
	// byte-identical to the sequential ladder.
	Hedge bool
	// FaultSeed seeds the retry jitter (and any other client-local
	// randomness) so fault-injection runs replay deterministically.
	FaultSeed int64

	// Rank is this client's rank index in the job, reported through
	// Commit. Meaningful only when Commit is set.
	Rank int
	// Commit, when set, receives per-version durability transitions for
	// cluster-wide group commit (internal/coord).
	Commit CommitHook

	// PartnerStore and PartnerPath enable partner-copy replication: a
	// flush that lands on the local SSD also stages a replica on a
	// partner node's SSD, crossing PartnerPath (local NIC → partner NIC
	// → partner NVMe) on the simulated fabric. Both must be set
	// together. Reads traverse the path in reverse.
	PartnerStore *ckptstore.Store
	PartnerPath  fabric.Path
}

// withDefaults fills unset sizes with the paper's §5.3.4 configuration.
func (p Params) withDefaults() Params {
	if p.GPUCacheSize == 0 {
		p.GPUCacheSize = 4 * fabric.GB
	}
	if p.HostCacheSize == 0 {
		p.HostCacheSize = 32 * fabric.GB
	}
	p.Retry = p.Retry.withDefaults()
	return p
}

func (p Params) validate() error {
	switch {
	case p.Clock == nil:
		return errors.New("core: Params.Clock is required")
	case p.GPU == nil:
		return errors.New("core: Params.GPU is required")
	case p.NVMe == nil:
		return errors.New("core: Params.NVMe is required")
	case p.PersistToPFS && p.PFS == nil:
		return errors.New("core: Params.PFS required when PersistToPFS is set")
	case p.PFSStore != nil && p.PFS == nil:
		return errors.New("core: Params.PFS required when PFSStore is set")
	case p.GPUCacheSize <= 0 || p.HostCacheSize <= 0:
		return errors.New("core: cache sizes must be positive")
	case p.ChunkSize < 0:
		return errors.New("core: Params.ChunkSize must be non-negative")
	case p.FlushStreams < 0:
		return errors.New("core: Params.FlushStreams must be non-negative")
	case (p.PartnerStore == nil) != (len(p.PartnerPath) == 0):
		return errors.New("core: PartnerStore and PartnerPath must be set together")
	case !p.GPUEvictionPolicy.Known():
		return fmt.Errorf("core: unknown Params.GPUEvictionPolicy %d", int(p.GPUEvictionPolicy))
	}
	return nil
}

// replica is one copy of a checkpoint on one tier, with its own life-cycle
// machine (Fig. 1: "a life cycle for every checkpoint instance on all
// cache tiers").
type replica struct {
	tier Tier
	fsm  *lifecycle.Machine
}

// hasData reports whether the replica currently holds a readable copy.
func (r *replica) hasData() bool {
	switch r.fsm.State() {
	case lifecycle.WriteComplete, lifecycle.Flushed,
		lifecycle.ReadComplete, lifecycle.Consumed:
		return true
	}
	return false
}

// checkpoint is the client-wide record of one version.
type checkpoint struct {
	id       ID
	size     int64
	pay      payload.Payload
	replicas [TierPFS + 1]*replica // indexed by Tier; nil = no replica there

	// entries are the eviction inputs the cache tiers' buffers read in place
	// (oracle.go), rewritten under Client.mu whenever the rule's answer changes.
	entries [TierHost + 1]cachebuf.Entry

	consumed    bool // restored at least once
	promoting   bool // a promotion toward the GPU tier is in flight
	writing     bool // its Checkpoint call has not returned; no tier need hold the bytes yet
	stagingHost bool // the host stager is copying SSD → host right now
	stagedHost  bool // counted against the stager's byte budget
	enqueuedD2H,
	enqueuedH2F bool
	writtenAt time.Duration

	// att attributes the version's time-to-durable to critical-path
	// components; nil for checkpoints recovered from a store. Finished
	// exactly once, in accountFate, when the fate is durable.
	att *attrib

	// hostWait: a T_D2H worker owns this version but is parked waiting
	// for pinned host registration to complete. A preemption triage may
	// claim the job out from under the parked worker (drainClaimed) and
	// decide the version itself — the worker checks the flag on wake and
	// walks away. Both guarded by Client.mu.
	hostWait     bool
	drainClaimed bool

	// flushAborted: every durable route failed; the cache replica was
	// released from pinning (fail-open) and the checkpoint may be lost
	// if it is evicted before being restored. Restore then reports
	// ErrLost definitively instead of hanging the cache.
	flushAborted bool
	flushErr     error // the failure that aborted the flush (diagnostics)

	// fateAccounted: the checkpoint's bytes have been credited to exactly
	// one conservation fate (durable, discarded, or lost) in the metrics
	// recorder. Guarded by Client.mu.
	fateAccounted bool
}

// writeInProgress reports whether the writer is still landing the
// initial GPU copy: the replica record exists but holds no data yet —
// Init while blocked on cache admission, WriteInProgress during the D2D
// copy.
func (ck *checkpoint) writeInProgress() bool {
	r := ck.replicas[TierGPU]
	if r == nil {
		return false
	}
	switch r.fsm.State() {
	case lifecycle.Init, lifecycle.WriteInProgress:
		return true
	}
	return false
}

// dataOn reports whether the checkpoint has a readable replica on tier.
func (ck *checkpoint) dataOn(tier Tier) bool {
	r := ck.replicas[tier]
	return r != nil && r.hasData()
}

// durableBelow reports whether a readable copy exists on any tier slower
// than t — the safety condition for evicting the replica on t without
// losing data.
func (ck *checkpoint) durableBelow(t Tier) bool {
	for tier := t + 1; tier <= TierPFS; tier++ {
		if ck.dataOn(tier) {
			return true
		}
	}
	return false
}

// storePayload is a lazily loaded payload backed by the durable stores,
// used for checkpoints recovered after a restart. The load is verified
// (the store's CRC layer) and tier-aware: the local SSD store is
// preferred, and a failed or corrupt read falls back down the deep-tier
// table — partner SSD, then PFS — re-populating the local SSD copy on
// success.
type storePayload struct {
	deep []deepTier // the client's table; rows without a store are skipped
	rec  *metrics.Recorder
	id   int64
	size int64

	once sync.Once
	data []byte
	err  error
}

func (p *storePayload) load() {
	p.once.Do(func() {
		// The fallback ladder, fastest first. The first Get error is
		// kept: it names the tier that *should* have served the read.
		missErr := error(ckptstore.ErrNotFound)
		firstErr := false
		ssd := p.deep[0].store // may be nil: only deeper tiers durable
		for i := range p.deep {
			st := p.deep[i].store
			if st == nil || !st.Has(p.id) {
				continue
			}
			data, err := st.Get(p.id)
			if err != nil {
				if !firstErr {
					missErr, firstErr = err, true
				}
				continue
			}
			p.data = data
			if i > 0 && ssd != nil {
				// The faster durable tier failed (or never had the
				// bytes); the read is served from a deeper copy. Repair
				// the faster tier so later reads and future restarts find
				// the checkpoint locally again.
				p.rec.FallbackRead()
				if rerr := ssd.Restage(p.id, data); rerr == nil {
					p.rec.Repopulation()
				}
			}
			return
		}
		p.err = missErr
	})
}

// Size implements payload.Payload.
func (p *storePayload) Size() int64 { return p.size }

// Checksum implements payload.Payload.
func (p *storePayload) Checksum() uint64 {
	p.load()
	if p.err != nil {
		return 0
	}
	return payload.NewReal(p.data).Checksum()
}

// Bytes implements payload.Payload; nil if every durable read failed (the
// caller's checksum verification will then fail loudly).
func (p *storePayload) Bytes() []byte {
	p.load()
	if p.err != nil {
		return nil
	}
	return p.data
}

// LoadErr forces the load and returns the durable-read error, if any —
// the definitive signal callers need to distinguish "no bytes" from
// "read failed".
func (p *storePayload) LoadErr() error {
	p.load()
	return p.err
}
