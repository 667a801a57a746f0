// Package experiments reproduces the paper's evaluation (§5): it wires
// clusters, devices, and the three compared runtimes (ADIOS2, optimized
// UVM, Score) into the RTM shot benchmark, and provides one driver per
// table and figure. All experiments run on the deterministic virtual
// clock, so a full paper-scale shot (48 GB per GPU, 8–32 GPUs) completes
// in wall-clock milliseconds while reproducing the contention behavior of
// the real testbed.
package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"score/internal/adiossim"
	"score/internal/cachebuf"
	"score/internal/core"
	"score/internal/device"
	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/rtm"
	"score/internal/simclock"
	"score/internal/slo"
	"score/internal/trace"
	"score/internal/uvmsim"
)

// Approach identifies a compared runtime (§5.2).
type Approach int

const (
	// ADIOS2 is the BP5 deferred-I/O baseline.
	ADIOS2 Approach = iota
	// UVM is the optimized unified-virtual-memory baseline.
	UVM
	// Score is the paper's proposal.
	Score
)

// String names the approach as in the figures.
func (a Approach) String() string {
	switch a {
	case ADIOS2:
		return "ADIOS2"
	case UVM:
		return "UVM"
	case Score:
		return "Score"
	}
	return fmt.Sprintf("Approach(%d)", int(a))
}

// HintMode is the degree of foreknowledge (Table 1).
type HintMode int

const (
	// NoHints: direct reads, no foreknowledge.
	NoHints HintMode = iota
	// SingleHint: one hint at a time, issued an iteration ahead.
	SingleHint
	// AllHints: the full restore order is known in advance.
	AllHints
)

// String names the hint mode as in Table 1.
func (h HintMode) String() string {
	switch h {
	case NoHints:
		return "No hints"
	case SingleHint:
		return "Single hint"
	case AllHints:
		return "All hints"
	}
	return fmt.Sprintf("HintMode(%d)", int(h))
}

// Combo is one Table 1 row: an approach with a hint budget.
type Combo struct {
	Approach Approach
	Hints    HintMode
}

// Label renders the Table 1 row name.
func (c Combo) Label() string { return fmt.Sprintf("%s, %s", c.Hints, c.Approach) }

// Table1 returns the seven compared configurations of Table 1.
func Table1() []Combo {
	return []Combo{
		{ADIOS2, NoHints},
		{UVM, NoHints},
		{Score, NoHints},
		{UVM, SingleHint},
		{Score, SingleHint},
		{UVM, AllHints},
		{Score, AllHints},
	}
}

// Runtime is the contract the shot driver needs; all three approaches
// satisfy it.
type Runtime interface {
	Checkpoint(id int64, pay payload.Payload) error
	Restore(id int64) (payload.Payload, error)
	PrefetchEnqueue(id int64)
	PrefetchStart()
	WaitFlush() error
	Metrics() *metrics.Recorder
	Err() error
	Close()
}

// scoreRuntime adapts core.Client's typed IDs to the Runtime contract.
type scoreRuntime struct{ *core.Client }

func (s scoreRuntime) Checkpoint(id int64, pay payload.Payload) error {
	return s.Client.Checkpoint(core.ID(id), pay)
}
func (s scoreRuntime) Restore(id int64) (payload.Payload, error) {
	return s.Client.Restore(core.ID(id))
}
func (s scoreRuntime) PrefetchEnqueue(id int64) { s.Client.PrefetchEnqueue(core.ID(id)) }

// ShotConfig describes one benchmark run (§5.3).
type ShotConfig struct {
	// Nodes and GPUsPerNode give the process count (§5.1: up to 4 nodes
	// × 8 GPUs).
	Nodes, GPUsPerNode int
	// Node is the interconnect model (defaults to DGXA100).
	Node fabric.NodeConfig

	// Snapshots per shot and their sizes: Uniform uses UniformSize for
	// every snapshot; otherwise Trace generates variable sizes.
	Snapshots   int
	Uniform     bool
	UniformSize int64
	Trace       rtm.TraceConfig

	// Order is the backward-pass restore order.
	Order rtm.Order
	// Interval is the compute time between consecutive checkpoints and
	// between consecutive restores (paper default: 10 ms).
	Interval time.Duration
	// WaitForFlush inserts a full flush drain between the forward and
	// backward passes (Fig. 5) instead of restoring immediately
	// (Fig. 6).
	WaitForFlush bool
	// TightlyCoupled adds a barrier across all processes at every
	// iteration (Fig. 9a).
	TightlyCoupled bool

	// GPUCache and HostCache are the per-process cache reservations
	// (§5.3.4 defaults: 4 GiB and 32 GiB).
	GPUCache, HostCache int64

	// Combo selects the runtime and hint budget.
	Combo Combo
	// Label, when set, overrides the auto-generated result label
	// (combo + phase-coupling mode) in metric and attribution exports —
	// used by drivers that run the same combo in several variants (the
	// pipeline experiment's mono vs chunked cases).
	Label string
	// Seed controls trace generation and irregular orders.
	Seed int64
	// BWScale scales every link bandwidth (for reduced-scale runs whose
	// data sizes shrink by the same factor, preserving the paper's
	// bandwidth-to-working-set ratios). 0 or 1 means paper bandwidths.
	BWScale float64

	// Extension knobs (Score only): the paper's future-work items.
	// SharedHostPerNode pools the host caches of a node's clients;
	// GPUDirect bypasses the host tier entirely.
	SharedHostPerNode bool
	GPUDirect         bool
	// ChunkSize enables chunked multi-hop transfer pipelining (§4.3);
	// 0 keeps monolithic transfers. FlushStreams sizes the flusher
	// worker pools (0 = automatic). Score only.
	ChunkSize    int64
	FlushStreams int

	// Ablation knobs (Score only).
	SplitCache, NoPinning, OnDemandAlloc, NoHostStager bool
	// UpfrontHostInit charges the pinned host cache registration during
	// client construction (before the measured shot) instead of
	// overlapping it with the run — the §4.1.4 pre-allocation design in
	// its pure form, used by the allocation ablation.
	UpfrontHostInit bool
	EvictionPolicy  cachebuf.Policy

	// SampleInterval, when positive, runs a virtual-clock sampler over
	// the shot that records cache occupancy, score means, flush queue
	// depths and copy-engine occupancy per Score rank, plus in-flight
	// count and cumulative busy time per fabric link, every interval.
	// The series land in ShotResult.Series.
	SampleInterval time.Duration
	// Tracer, when set, receives span events from Score ranks and — with
	// sampling enabled — every sample as a Chrome-trace counter event.
	Tracer *trace.Tracer

	// Objectives, when non-empty, attaches an SLO engine evaluating them
	// over the shot on its virtual clock (Score combos only — the
	// baselines have no critical-path cursor to attribute from).
	Objectives []slo.Objective
	// slo is the engine runShot builds from Objectives, carried in the
	// config so buildRuntime can hand it to each rank's runtime.
	slo *slo.Engine

	// Observers are the callbacks the shot reports through (see Run).
	Observers
}

// Observers are the callbacks through which whoever owns a run collects
// what its scenarios produce. Each is optional and is called on the
// goroutine of the scenario that produced the value, so scenarios run
// concurrently need observers that tolerate that (or one set each).
type Observers struct {
	// OnShot receives every completed shot.
	OnShot func(ShotResult)
	// OnSLO receives every scenario's end-of-run SLO report, labeled.
	OnSLO func(label string, rep slo.Report)
	// OnTrace enables per-shot tracing. A tracer timestamps from one
	// clock and every shot runs on a fresh virtual clock, so one tracer
	// cannot span shots: a shot whose Tracer is nil records spans,
	// lifecycle-ledger events and sampled counters into a fresh bounded
	// tracer on its own clock, handed to OnTrace with the shot's label
	// when the shot completes.
	OnTrace func(label string, t *trace.Tracer)
}

// reportSLO hands a labeled report to OnSLO, if set.
func (o Observers) reportSLO(label string, rep slo.Report) {
	if o.OnSLO != nil {
		o.OnSLO(label, rep)
	}
}

// Run is everything one invocation (a ckptbench command line, a test, a
// benchmark) asks of the scenarios it runs: the workload scale plus the
// options that apply to every shot alike. It is a plain value — drivers
// take it as a parameter and Apply copies it into each ShotConfig — so
// runs with different options can execute at the same time.
type Run struct {
	Scale
	// SampleInterval, when positive, samples every shot's gauges at this
	// simulated interval (ShotConfig.SampleInterval).
	SampleInterval time.Duration
	// ChunkSize, when positive, streams every shot's multi-hop transfers
	// in chunks of this many bytes (ShotConfig.ChunkSize); drivers that
	// compare chunk sizes override it per shot.
	ChunkSize int64
	// SLO makes every scenario evaluate its checked-in default objective
	// set (internal/slo defaults.go).
	SLO bool
	Observers
}

// Apply maps the run onto a ShotConfig: the scale's sizes, caches and
// bandwidths, then the per-run options. Fields a driver sets afterwards
// override it.
func (r Run) Apply(cfg *ShotConfig) {
	cfg.Snapshots = r.Snapshots
	cfg.UniformSize = r.UniformSize
	cfg.GPUCache = r.GPUCache
	cfg.HostCache = r.HostCache
	cfg.BWScale = r.Bandwidth
	cfg.Trace = r.traceConfig()
	cfg.SampleInterval = r.SampleInterval
	cfg.ChunkSize = r.ChunkSize
	if r.SLO {
		cfg.Objectives = slo.ShotObjectives()
	}
	cfg.Observers = r.Observers
}

// SLOLedgerRank is the flight-recorder rank SLO alert transitions are
// recorded under: they are run-scoped, not per-rank, so they live on a
// synthetic rank outside the real range.
const SLOLedgerRank = -1

// withDefaults fills the paper's defaults.
func (c ShotConfig) withDefaults() ShotConfig {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.GPUsPerNode == 0 {
		c.GPUsPerNode = 8
	}
	if c.Node.GPUs == 0 {
		c.Node = fabric.DGXA100()
		c.Node.GPUs = c.GPUsPerNode
	}
	if c.Snapshots == 0 {
		c.Snapshots = 384
	}
	if c.UniformSize == 0 {
		c.UniformSize = 128 << 20
	}
	if c.Trace.Snapshots == 0 {
		c.Trace = rtm.DefaultTraceConfig()
	}
	c.Trace.Snapshots = c.Snapshots
	if c.Interval == 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.GPUCache == 0 {
		c.GPUCache = 4 * fabric.GB
	}
	if c.HostCache == 0 {
		c.HostCache = 32 * fabric.GB
	}
	if c.Seed == 0 {
		c.Seed = 2023
	}
	if c.BWScale > 0 && c.BWScale != 1 {
		c.Node.D2DBandwidth *= c.BWScale
		c.Node.PCIeBandwidth *= c.BWScale
		c.Node.NVMePerDrive *= c.BWScale
		c.Node.PFSBandwidth *= c.BWScale
		if c.Node.NICBandwidth > 0 {
			c.Node.NICBandwidth *= c.BWScale
		}
	}
	return c
}

// RankResult is one process's measurements.
type RankResult struct {
	Rank    int
	Summary metrics.Summary
}

// ShotResult aggregates a run.
type ShotResult struct {
	Config   ShotConfig
	PerRank  []RankResult
	Duration time.Duration // simulated makespan
	// Series holds the sampled time series when Config.SampleInterval
	// was set (nil otherwise).
	Series map[string][]metrics.Sample
	// SLO holds the engine's end-of-run report when Config.Objectives
	// was set on a Score combo (nil otherwise).
	SLO *slo.Report
}

// Label names the run for metric exports: the Table 1 combo plus the
// phase-coupling mode.
func (r ShotResult) Label() string {
	if r.Config.Label != "" {
		return r.Config.Label
	}
	mode := "immediate-restore"
	if r.Config.WaitForFlush {
		mode = "drained-restore"
	}
	return fmt.Sprintf("%s (%s)", r.Config.Combo.Label(), mode)
}

// MergedSummary folds every rank's summary into one (histograms merge
// bucket-by-bucket; counters add).
func (r ShotResult) MergedSummary() metrics.Summary {
	parts := make([]metrics.Summary, 0, len(r.PerRank))
	for _, rr := range r.PerRank {
		parts = append(parts, rr.Summary)
	}
	return metrics.Merge(parts...)
}

// MeanCheckpointThroughput is the per-GPU application-observed write
// throughput, computed as the aggregate ratio (total bytes over total
// blocking time across ranks — the harmonic mean of per-rank rates).
// The arithmetic mean of per-rank ratios is unstable: one rank whose
// restores all hit the cache divides by near-zero blocking and dominates
// the average, so the figures report the aggregate ratio.
func (r ShotResult) MeanCheckpointThroughput() float64 {
	var bytes int64
	var blocked time.Duration
	for _, rr := range r.PerRank {
		bytes += rr.Summary.CheckpointBytes
		blocked += rr.Summary.CheckpointBlocked
	}
	return ratio(bytes, blocked)
}

// MeanRestoreThroughput is the per-GPU read throughput (aggregate ratio;
// see MeanCheckpointThroughput).
func (r ShotResult) MeanRestoreThroughput() float64 {
	var bytes int64
	var blocked time.Duration
	for _, rr := range r.PerRank {
		bytes += rr.Summary.RestoreBytes
		blocked += rr.Summary.RestoreBlocked
	}
	return ratio(bytes, blocked)
}

func ratio(bytes int64, blocked time.Duration) float64 {
	if blocked <= 0 {
		if bytes > 0 {
			return float64(bytes) * 1e9
		}
		return 0
	}
	return float64(bytes) / blocked.Seconds()
}

// TotalIOWait sums blocked time across ranks and phases.
func (r ShotResult) TotalIOWait() time.Duration {
	var t time.Duration
	for _, rr := range r.PerRank {
		t += rr.Summary.CheckpointBlocked + rr.Summary.RestoreBlocked
	}
	return t
}

// RunShot executes one full shot benchmark on a fresh virtual clock.
func RunShot(cfg ShotConfig) (ShotResult, error) {
	cfg = cfg.withDefaults()
	clk := simclock.NewVirtual()
	var res ShotResult
	var err error
	clk.Run(func() { res, err = runShot(clk, cfg) })
	return res, err
}

func runShot(clk *simclock.Virtual, cfg ShotConfig) (ShotResult, error) {
	var sinkTracer *trace.Tracer
	if cfg.Tracer == nil && cfg.OnTrace != nil {
		sinkTracer = trace.New(clk.Now)
		cfg.Tracer = sinkTracer
	}
	// The SLO engine rides the shot clock and only Score runtimes feed it
	// (the baselines have no critical-path cursor): a baseline combo with
	// objectives would report zero events, so skip it there rather than
	// emit vacuous compliance rows.
	var sloEng *slo.Engine
	if len(cfg.Objectives) > 0 && cfg.Combo.Approach == Score {
		eng, err := slo.NewEngine(clk.Now, cfg.Objectives...)
		if err != nil {
			return ShotResult{}, err
		}
		sloEng = eng
		cfg.slo = eng
	}
	cluster, err := fabric.NewCluster(clk, cfg.Nodes, cfg.Node)
	if err != nil {
		return ShotResult{}, err
	}
	ranks := cfg.Nodes * cfg.GPUsPerNode

	var sharedPools []*core.SharedHostCache
	if cfg.SharedHostPerNode && cfg.Combo.Approach == Score {
		sharedPools = make([]*core.SharedHostCache, cfg.Nodes)
		for n := range sharedPools {
			sharedPools[n] = core.NewSharedHostCachePinnedBy(clk,
				fmt.Sprintf("node%d-sharedhost", n),
				cfg.HostCache*int64(cfg.GPUsPerNode), cfg.GPUsPerNode)
		}
		defer func() {
			for _, p := range sharedPools {
				p.Close()
			}
		}()
	}

	// Build one runtime per rank. Every constructed runtime is closed on
	// every exit path: a leaked runtime leaves parked daemon tasks that
	// the virtual clock correctly reports as a deadlock.
	rts := make([]Runtime, ranks)
	defer func() {
		for _, rt := range rts {
			if rt != nil {
				rt.Close()
			}
		}
	}()
	shots := make([]rtm.Shot, ranks)
	orders := make([][]int, ranks)
	costs := device.DefaultAllocCosts()
	if cfg.BWScale > 0 && cfg.BWScale != 1 {
		// Allocation rates scale with the rest of the hardware so
		// reduced-scale runs keep the paper's cost ratios (e.g. pinned
		// allocation slower than the transfers it enables, §4.1.4).
		costs.DeviceBytesPerSec *= cfg.BWScale
		costs.PinnedHostBytesPerSec *= cfg.BWScale
	}
	for rank := 0; rank < ranks; rank++ {
		node := cluster.Nodes[rank/cfg.GPUsPerNode]
		local := rank % cfg.GPUsPerNode
		d2d, pcie := node.GPULinks(local)
		gpu := device.NewGPU(clk, local, 40*fabric.GB, d2d, pcie, costs) // A100 HBM

		var pool *core.SharedHostCache
		if sharedPools != nil {
			pool = sharedPools[rank/cfg.GPUsPerNode]
		}
		rt, err := buildRuntime(clk, cfg, gpu, node, pool)
		if err != nil {
			return ShotResult{}, err
		}
		rts[rank] = rt

		if cfg.Uniform {
			shots[rank] = rtm.UniformShot(rank, cfg.Snapshots, cfg.UniformSize)
		} else {
			shots[rank], err = rtm.GenerateShot(cfg.Trace, rank)
			if err != nil {
				return ShotResult{}, err
			}
		}
		orders[rank] = cfg.Order.Sequence(cfg.Snapshots, cfg.Seed+int64(rank))
	}

	if sloEng != nil {
		// Alert transitions are run-scoped: counters land on rank 0's
		// recorder, ledger events on the synthetic SLOLedgerRank. The
		// sink runs outside the engine mutex, and calls are serialized
		// by the virtual clock (flushes happen when simulated time
		// advances, which parks the whole cohort), so the transition
		// counter needs no lock — but keep it atomic so the race
		// detector never has to reason about clock-edge ordering.
		rec := rts[0].Metrics()
		var fl *trace.FlightRecorder
		if cfg.Tracer != nil {
			fl = cfg.Tracer.Flight()
		}
		var transitions atomic.Int64
		sloEng.SetAlertSink(func(a slo.Alert) {
			kind := trace.LSLOFired
			if a.Fired() {
				rec.SLOAlertFired()
			} else {
				kind = trace.LSLOResolved
				rec.SLOAlertResolved()
			}
			fl.RecordAt(SLOLedgerRank, transitions.Add(1), kind, a.Class, a.Detail(), a.At)
		})
	}

	var sampler *metrics.Sampler
	if cfg.SampleInterval > 0 {
		sampler = metrics.NewSampler(clk, cfg.SampleInterval, 0)
		for rank, rt := range rts {
			if sc, ok := rt.(scoreRuntime); ok {
				sc.Client.RegisterProbes(sampler, fmt.Sprintf("rank%d", rank))
			}
		}
		registerLinkProbes(sampler, cluster)
		if cfg.Tracer != nil {
			tracer := cfg.Tracer
			sampler.SetCounterSink(func(name string, at time.Duration, v float64) {
				tracer.Counter(0, name, at, v)
			})
			// Surface the tracer's bounded-buffer drop counters in the
			// sampled series: a non-zero value means the rings wrapped
			// and the exported timeline (or flight-recorder ledger) is
			// incomplete — raise the capacity rather than trust it.
			sampler.Register("trace.events_dropped", func() float64 {
				ev, _ := tracer.Dropped()
				return float64(ev)
			})
			sampler.Register("trace.counters_dropped", func() float64 {
				_, cnt := tracer.Dropped()
				return float64(cnt)
			})
			if fl := tracer.Flight(); fl != nil {
				sampler.Register("trace.ledger_dropped", func() float64 {
					return float64(fl.TotalDropped())
				})
			}
		}
		sampler.Start()
		defer sampler.Stop()
	}

	var barrier *simclock.Barrier
	if cfg.TightlyCoupled {
		barrier = simclock.NewBarrier(clk, ranks)
	}

	errs := make([]error, ranks)
	wg := simclock.NewWaitGroup(clk)
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			errs[rank] = runRank(clk, cfg, rts[rank], shots[rank], orders[rank], barrier)
		})
	}
	wg.Wait()

	// Close out observability state before snapshots so the counters the
	// per-rank summaries carry already include end-of-run transitions:
	// Finalize flushes the engine's last staged instant (possibly firing
	// or resolving alerts through the sink above), and the telemetry-drop
	// gauges record whether the bounded trace rings wrapped.
	if sloEng != nil {
		sloEng.Finalize()
	}
	if cfg.Tracer != nil && cfg.Combo.Approach == Score {
		ev, cnt := cfg.Tracer.Dropped()
		rts[0].Metrics().TelemetryDrops(ev, cnt, cfg.Tracer.Flight().TotalDropped())
	}

	res := ShotResult{Config: cfg, Duration: clk.Now()}
	for rank := 0; rank < ranks; rank++ {
		if errs[rank] != nil {
			return res, fmt.Errorf("rank %d: %w", rank, errs[rank])
		}
		if err := rts[rank].Err(); err != nil {
			return res, fmt.Errorf("rank %d async: %w", rank, err)
		}
		// Assert the metrics invariants for every scenario. Drained-
		// restore runs can additionally be checked at quiescence (the
		// mid-run WaitFlush emptied the queues; the makespan was
		// captured above). Immediate-restore runs cannot be drained
		// here: prefetched-but-unconsumed replicas stay pinned after
		// the backward pass, so a trailing flush may legitimately hold
		// its reservation until Close.
		check := metrics.CheckInvariants
		if cfg.WaitForFlush {
			if err := rts[rank].WaitFlush(); err != nil {
				return res, fmt.Errorf("rank %d final drain: %w", rank, err)
			}
			check = metrics.CheckInvariantsQuiescent
		}
		sum := rts[rank].Metrics().Snapshot()
		if err := check(sum); err != nil {
			return res, fmt.Errorf("rank %d metrics invariants: %w", rank, err)
		}
		res.PerRank = append(res.PerRank, RankResult{Rank: rank, Summary: sum})
	}
	if sampler != nil {
		sampler.Stop()
		res.Series = sampler.Series()
	}
	if sloEng != nil {
		rep := sloEng.Report()
		if err := reconcileSLO(&rep, res.MergedSummary(), cfg.Tracer); err != nil {
			return res, fmt.Errorf("%s: %w", res.Label(), err)
		}
		res.SLO = &rep
		cfg.reportSLO(res.Label(), rep)
	}
	if cfg.OnShot != nil {
		cfg.OnShot(res)
	}
	if sinkTracer != nil {
		cfg.OnTrace(res.Label(), sinkTracer)
	}
	return res, nil
}

// reconcileSLO runs the SLO conservation check against the run's merged
// metrics and alert ledger, folding degraded-mode warnings into the
// report. The engine's per-kind event counts must equal the counts
// derivable from the critical-path records and drain tallies (which the
// metrics invariants in turn tie to the operation histograms); its alert
// transitions must equal the ledger's retained fire/resolve events —
// strictly when the ledger dropped nothing, as warnings otherwise.
func reconcileSLO(rep *slo.Report, merged metrics.Summary, tracer *trace.Tracer) error {
	counts := map[slo.Kind]int64{slo.KindDrainDeadline: merged.Drains}
	for _, cp := range merged.CritPaths {
		switch cp.Op {
		case metrics.CritRestore:
			counts[slo.KindRestoreLatency]++
			counts[slo.KindHitRate]++
		case metrics.CritDurable:
			counts[slo.KindDurableLatency]++
		}
	}
	// Without a tracer there is no ledger to reconcile against: feed the
	// report's own tallies so that leg of the check is vacuously true.
	var ledgerFired, ledgerResolved, ledgerDropped int64
	for _, o := range rep.Objectives {
		ledgerFired += o.Fired
		ledgerResolved += o.Resolved
	}
	if tracer != nil {
		fl := tracer.Flight()
		ledgerFired, ledgerResolved = 0, 0
		for _, ev := range fl.Ledger(SLOLedgerRank) {
			switch ev.Kind {
			case trace.LSLOFired:
				ledgerFired++
			case trace.LSLOResolved:
				ledgerResolved++
			}
		}
		ledgerDropped = fl.TotalDropped()
	}
	warns, err := slo.CheckConservation(*rep, counts, ledgerFired, ledgerResolved, ledgerDropped)
	if err != nil {
		return err
	}
	rep.Warnings = append(rep.Warnings, warns...)
	return nil
}

// registerLinkProbes adds one in-flight-transfers gauge and one
// cumulative-busy-seconds counter per distinct fabric link of the
// cluster (per-GPU PCIe links, per-node NVMe, the shared PFS).
func registerLinkProbes(s *metrics.Sampler, cluster *fabric.Cluster) {
	seen := map[*fabric.Link]bool{}
	add := func(l *fabric.Link) {
		if l == nil || seen[l] {
			return
		}
		seen[l] = true
		s.Register("link."+l.Name()+".inflight", func() float64 {
			return float64(l.InFlight())
		})
		s.Register("link."+l.Name()+".busy_seconds", func() float64 {
			return l.BusyTime().Seconds()
		})
	}
	for _, node := range cluster.Nodes {
		add(node.NVMe)
		add(node.PFS)
		add(node.NIC)
		for g := 0; g < node.Config().GPUs; g++ {
			d2d, pcie := node.GPULinks(g)
			add(d2d)
			add(pcie)
		}
	}
}

func buildRuntime(clk simclock.Clock, cfg ShotConfig, gpu *device.GPU, node *fabric.Node, pool *core.SharedHostCache) (Runtime, error) {
	switch cfg.Combo.Approach {
	case ADIOS2:
		return adiossim.New(adiossim.Config{
			Clock: clk, GPU: gpu, NVMe: node.NVMe, HostBufferSize: cfg.HostCache,
		})
	case UVM:
		return uvmsim.New(uvmsim.Config{
			Clock: clk, GPU: gpu, NVMe: node.NVMe,
			DeviceCacheSize: cfg.GPUCache, HostCacheSize: cfg.HostCache,
			DiscardAfterRestore: !cfg.WaitForFlush,
			AsyncHostInit:       true,
		})
	case Score:
		params := core.Params{
			Clock: clk, GPU: gpu, NVMe: node.NVMe, PFS: node.PFS,
			GPUCacheSize: cfg.GPUCache, HostCacheSize: cfg.HostCache,
			DiscardAfterRestore: !cfg.WaitForFlush,
			AsyncHostInit:       !cfg.UpfrontHostInit,
			SplitCache:          cfg.SplitCache,
			NoPinning:           cfg.NoPinning,
			OnDemandAlloc:       cfg.OnDemandAlloc,
			NoHostStager:        cfg.NoHostStager,
			GPUEvictionPolicy:   cfg.EvictionPolicy,
			SharedHost:          pool,
			GPUDirectStorage:    cfg.GPUDirect,
			ChunkSize:           cfg.ChunkSize,
			FlushStreams:        cfg.FlushStreams,
			Tracer:              cfg.Tracer,
		}
		if cfg.slo != nil {
			// Assigned only when non-nil so the interface stays nil (not
			// a typed-nil) and core's zero-overhead gate holds.
			params.SLO = cfg.slo
		}
		client, err := core.New(params)
		if err != nil {
			return nil, err
		}
		return scoreRuntime{client}, nil
	}
	return nil, fmt.Errorf("experiments: unknown approach %v", cfg.Combo.Approach)
}

// runRank executes the Listing 1 pattern for one process: enqueue hints
// (per the hint budget), forward pass, optional flush drain, prefetch
// start, backward pass.
func runRank(clk simclock.Clock, cfg ShotConfig, rt Runtime, shot rtm.Shot, order []int, barrier *simclock.Barrier) error {
	n := cfg.Snapshots

	if cfg.Combo.Hints == AllHints {
		for _, idx := range order {
			rt.PrefetchEnqueue(int64(idx))
		}
	}

	// Forward pass: compute (sleep), checkpoint.
	for i := 0; i < n; i++ {
		clk.Sleep(cfg.Interval)
		if err := rt.Checkpoint(int64(i), payload.NewVirtual(shot.Sizes[i])); err != nil {
			return fmt.Errorf("checkpoint %d: %w", i, err)
		}
		if barrier != nil {
			barrier.Await()
		}
	}

	if cfg.WaitForFlush {
		if err := rt.WaitFlush(); err != nil {
			return fmt.Errorf("wait flush: %w", err)
		}
		if barrier != nil {
			barrier.Await()
		}
	}

	rt.PrefetchStart()

	// Backward pass: restore per the order, compute between restores.
	for k, idx := range order {
		if cfg.Combo.Hints == SingleHint && k+1 < len(order) {
			// One hint at a time: announce the next iteration's
			// restore at the beginning of the current one (§5.2.4).
			rt.PrefetchEnqueue(int64(order[k+1]))
		}
		if _, err := rt.Restore(int64(idx)); err != nil {
			return fmt.Errorf("restore %d: %w", idx, err)
		}
		clk.Sleep(cfg.Interval)
		if barrier != nil {
			barrier.Await()
		}
	}
	return nil
}
