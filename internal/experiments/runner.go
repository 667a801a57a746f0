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
	"time"

	"score/internal/adiossim"
	"score/internal/cachebuf"
	"score/internal/core"
	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/rtm"
	"score/internal/simclock"
	"score/internal/slo"
	"score/internal/testbed"
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

// ShotConfig describes one benchmark run (§5.3): the Run it belongs to,
// whose scale and options it reads as its own fields, plus the shot's
// workload and runtime. Every field means what it says, zero included;
// Run.Shot gives the paper's shape to start from. A driver that varies a
// Run field per shot (a cache size, a chunk size) assigns the promoted
// field.
type ShotConfig struct {
	Run

	// Nodes and GPUsPerNode give the process count (§5.1: up to 4 nodes
	// × 8 GPUs).
	Nodes, GPUsPerNode int

	// Uniform gives every snapshot the scale's UniformSize; otherwise
	// Trace generates variable sizes.
	Uniform bool
	// Trace generates the variable sizes.
	Trace rtm.TraceConfig

	// Order is the backward-pass restore order.
	Order rtm.Order
	// Interval is the compute time between consecutive checkpoints and
	// between consecutive restores (the paper's: 10 ms).
	Interval time.Duration
	// WaitForFlush inserts a full flush drain between the forward and
	// backward passes (Fig. 5) instead of restoring immediately
	// (Fig. 6).
	WaitForFlush bool
	// TightlyCoupled adds a barrier across all processes at every
	// iteration (Fig. 9a).
	TightlyCoupled bool

	// Combo selects the runtime and hint budget.
	Combo Combo
	// Label names the shot in metric and attribution exports and in its
	// trace and ledger files; every driver sets one. Left empty, it is
	// the combo plus the phase-coupling mode.
	Label string

	// Extension knobs (Score only): the paper's future-work items.
	// SharedHostPerNode pools the host caches of a node's clients;
	// GPUDirect bypasses the host tier entirely.
	SharedHostPerNode bool
	GPUDirect         bool

	// Ablation knobs (Score only).
	SplitCache, NoPinning, OnDemandAlloc, NoHostStager bool
	// UpfrontHostInit charges the pinned host cache registration during
	// client construction (before the measured shot) instead of
	// overlapping it with the run — the §4.1.4 pre-allocation design in
	// its pure form, used by the allocation ablation.
	UpfrontHostInit bool
	EvictionPolicy  cachebuf.Policy
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
	// cannot span shots: each shot records spans, lifecycle-ledger events
	// and sampled counters into a fresh bounded tracer on its own clock,
	// handed to OnTrace with the shot's label when the shot completes.
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
// take it as a parameter and every ShotConfig embeds it — so runs with
// different options can execute at the same time.
type Run struct {
	// Scale sizes every shot: Full() or Small(), or one derived from
	// them. A driver given an incomplete Scale returns an error naming it.
	Scale
	// SampleInterval, when positive, samples every shot's gauges at this
	// simulated interval: the sampled series of a RunShot shot, a
	// scenario Sim's WithSampling.
	SampleInterval time.Duration
	// ChunkSize, when positive, streams every shot's multi-hop transfers
	// in chunks of this many bytes (a scenario client's WithChunkSize);
	// drivers that compare chunk sizes override it per shot.
	ChunkSize int64
	// SLO makes every shot and scenario evaluate its checked-in default
	// objective set (internal/slo defaults.go).
	SLO bool
	Observers
}

// SLOLedgerRank is the flight-recorder rank SLO alert transitions are
// recorded under: they are run-scoped, not per-rank, so they live on a
// synthetic rank outside the real range.
const SLOLedgerRank = -1

// orderSeed seeds the irregular restore orders; rank r draws its order
// from orderSeed+r.
const orderSeed = 2023

// Shot is the paper's shot at this run (§5.3): one DGX A100 node of 8
// GPUs, 10 ms of compute between checkpoints and between restores, and
// the scale's variable-size trace. Drivers set the workload and runtime.
func (r Run) Shot() ShotConfig {
	return ShotConfig{Run: r, Nodes: 1, GPUsPerNode: 8, Interval: 10 * time.Millisecond, Trace: r.TraceConfig()}
}

// RankResult is one process's measurements.
type RankResult struct {
	Rank    int
	Summary metrics.Summary
}

// ShotResult aggregates a run. A scenario phase on a score.Sim sets only
// its Config's Label, and has one RankResult per client in closing order.
type ShotResult struct {
	Config   ShotConfig
	PerRank  []RankResult
	Duration time.Duration // simulated makespan
	// Series holds the sampled time series when the shot was sampled
	// (nil otherwise).
	Series map[string][]metrics.Sample
	// SLO holds the engine's end-of-run report when the shot evaluated
	// objectives (nil otherwise).
	SLO *slo.Report
}

// Label names the run for metric exports: Config.Label when set, else
// the Table 1 combo plus the phase-coupling mode.
func (r ShotResult) Label() string {
	if r.Config.Label != "" {
		return r.Config.Label
	}
	return fmt.Sprintf("%s (%s)", r.Config.Combo.Label(), restoreMode(r.Config.WaitForFlush))
}

// restoreMode names a shot's phase coupling: whether its restore phase
// waits for the flushes.
func restoreMode(waitForFlush bool) string {
	if waitForFlush {
		return "drained-restore"
	}
	return "immediate-restore"
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
	return r.meanRate(func(s metrics.Summary) (int64, time.Duration) { return s.CheckpointBytes, s.CheckpointBlocked })
}

// MeanRestoreThroughput is the per-GPU read throughput (aggregate ratio;
// see MeanCheckpointThroughput).
func (r ShotResult) MeanRestoreThroughput() float64 {
	return r.meanRate(func(s metrics.Summary) (int64, time.Duration) { return s.RestoreBytes, s.RestoreBlocked })
}

// meanRate is the aggregate ratio of the bytes and blocking time part
// reads from each rank's summary; bytes moved with no blocking at all
// count as moved in one nanosecond.
func (r ShotResult) meanRate(part func(metrics.Summary) (int64, time.Duration)) float64 {
	var bytes int64
	var blocked time.Duration
	for _, rr := range r.PerRank {
		b, d := part(rr.Summary)
		bytes, blocked = bytes+b, blocked+d
	}
	if blocked <= 0 {
		return float64(bytes) * 1e9
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
	if err := cfg.Scale.check(); err != nil {
		return ShotResult{}, err
	}
	clk := simclock.NewVirtual()
	var res ShotResult
	var err error
	clk.Run(func() { res, err = runShot(clk, cfg) })
	return res, err
}

func runShot(clk *simclock.Virtual, cfg ShotConfig) (ShotResult, error) {
	// Every node is a DGX A100, its links and allocation rates scaled by
	// the run's bandwidth multiplier.
	tb, err := testbed.New(clk, cfg.Nodes, cfg.GPUsPerNode, cfg.Bandwidth, cfg.OnTrace != nil, cfg.SampleInterval)
	if err != nil {
		return ShotResult{}, err
	}
	defer tb.Close()
	// The SLO engine rides the shot clock and only Score runtimes feed it
	// (the baselines have no critical-path cursor): a baseline combo with
	// objectives would report zero events, so skip it there rather than
	// emit vacuous compliance rows.
	var sloEng *slo.Engine
	if cfg.SLO && cfg.Combo.Approach == Score {
		if sloEng, err = newSLOEngine(clk.Now, slo.ShotObjectives(), tb.Tracer); err != nil {
			return ShotResult{}, err
		}
	}
	ranks := cfg.Nodes * cfg.GPUsPerNode

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
	for rank := 0; rank < ranks; rank++ {
		rt, err := buildRuntime(clk, cfg, tb, rank, sloEng)
		if err != nil {
			return ShotResult{}, err
		}
		rts[rank] = rt
		if sc, ok := rt.(scoreRuntime); ok && tb.Sampler != nil {
			sc.Client.RegisterProbes(tb.Sampler, testbed.Probes(rank/cfg.GPUsPerNode, rank%cfg.GPUsPerNode))
		}
		if cfg.Uniform {
			shots[rank] = rtm.UniformShot(rank, cfg.Snapshots, cfg.UniformSize)
		} else {
			shots[rank], err = rtm.GenerateShot(cfg.Trace, rank)
			if err != nil {
				return ShotResult{}, err
			}
		}
		orders[rank] = cfg.Order.Sequence(cfg.Snapshots, orderSeed+int64(rank))
	}

	if sampler := tb.Sampler; sampler != nil {
		registerLinkProbes(sampler, tb.Cluster)
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
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			errs[rank] = runRank(clk, cfg, rts[rank], shots[rank], orders[rank], barrier)
		})
	}
	wg.Wait()

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
	if sampler := tb.Sampler; sampler != nil {
		sampler.Stop()
		res.Series = sampler.Series()
	}
	if err := cfg.endShot(&res, sloEng, tb.Tracer); err != nil {
		return res, fmt.Errorf("%s: %w", res.Label(), err)
	}
	return res, nil
}

// newSLOEngine builds a shot's SLO engine on its clock. With a tracer,
// alert transitions land in its ledger on the synthetic SLOLedgerRank:
// they are run-scoped, not per-rank. The sink runs on the tasks of the
// shot's clock, one at a time, so the transition count is a plain int.
func newSLOEngine(now func() time.Duration, objs []slo.Objective, tracer *trace.Tracer) (*slo.Engine, error) {
	eng, err := slo.NewEngine(now, objs...)
	if err != nil || tracer == nil {
		return eng, err
	}
	fl := tracer.Flight()
	var transitions int64
	eng.SetAlertSink(func(a slo.Alert) {
		kind := trace.LSLOResolved
		if a.Fired() {
			kind = trace.LSLOFired
		}
		transitions++
		fl.RecordAt(SLOLedgerRank, transitions, kind, a.Class, a.Detail(), a.At)
	})
	return eng, nil
}

// endShot is every shot's post-shot sequence, once its ranks' results
// and sampled series are in and its sampler has stopped: finalize the
// SLO engine and reconcile its report, then hand the labelled result to
// OnShot and the tracer to OnTrace. Run-scoped counters, the alert
// transitions and the trace rings' drop counts, land in the first rank's
// summary (nowhere, for a shot without ranks).
func (o Observers) endShot(res *ShotResult, eng *slo.Engine, tracer *trace.Tracer) error {
	first := &metrics.Summary{}
	if len(res.PerRank) > 0 {
		first = &res.PerRank[0].Summary
	}
	if eng != nil {
		eng.Finalize()
		rep := eng.Report()
		if err := reconcileSLO(&rep, sloCounts(res.MergedSummary()), tracer); err != nil {
			return err
		}
		for _, ob := range rep.Objectives {
			first.SLOAlertsFired += ob.Fired
			first.SLOAlertsResolved += ob.Resolved
		}
		res.SLO = &rep
		o.reportSLO(res.Label(), rep)
	}
	if tracer != nil {
		first.TraceEventsDropped, first.TraceCountersDropped = tracer.Dropped()
		first.LedgerEventsDropped = tracer.Flight().TotalDropped()
	}
	if o.OnShot != nil {
		o.OnShot(*res)
	}
	if o.OnTrace != nil && tracer != nil {
		o.OnTrace(res.Label(), tracer)
	}
	return nil
}

// sloCounts are the per-kind SLO event counts derivable from a shot's
// merged critical-path records and drain tallies, which the metrics
// invariants in turn tie to the operation histograms.
func sloCounts(merged metrics.Summary) map[slo.Kind]int64 {
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
	return counts
}

// reconcileSLO runs the SLO conservation check, folding degraded-mode
// warnings into the report: the engine's per-kind event counts must
// equal counts, and its alert transitions the ledger's retained
// fire/resolve events — strictly when the ledger dropped nothing, as
// warnings otherwise.
func reconcileSLO(rep *slo.Report, counts map[slo.Kind]int64, tracer *trace.Tracer) error {
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

// buildRuntime builds rank's runtime on its GPU and node of tb.
func buildRuntime(clk *simclock.Virtual, cfg ShotConfig, tb *testbed.Testbed, rank int, eng *slo.Engine) (Runtime, error) {
	n := rank / cfg.GPUsPerNode
	gpu, node := tb.GPU(n, rank%cfg.GPUsPerNode), tb.Cluster.Nodes[n]
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
			GPUDirectStorage:    cfg.GPUDirect,
			ChunkSize:           cfg.ChunkSize,
			Tracer:              tb.Tracer,
		}
		if cfg.SharedHostPerNode {
			params.SharedHost = tb.SharedHost(n, cfg.HostCache*int64(cfg.GPUsPerNode))
		}
		if eng != nil {
			// Assigned only when non-nil so the interface stays nil (not
			// a typed-nil) and core's zero-overhead gate holds.
			params.SLO = eng
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
func runRank(clk *simclock.Virtual, cfg ShotConfig, rt Runtime, shot rtm.Shot, order []int, barrier *simclock.Barrier) error {
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
