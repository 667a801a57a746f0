// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus ablations of the design principles of §4.1.
//
// Each figure benchmark runs the corresponding experiment at the Small
// (1/16) scale — identical cache-pressure and bandwidth-to-working-set
// ratios as the paper's configuration, shrunk so the whole suite finishes
// in tens of seconds — and reports the application-observed throughputs
// of the headline configurations as custom metrics (MB/s of simulated
// I/O). cmd/ckptbench runs the same experiments at full paper scale.
//
// Run with:
//
//	go test -bench=. -benchmem
package score_test

import (
	"testing"
	"time"

	"score/internal/cachebuf"
	"score/internal/experiments"
	"score/internal/fabric"
	"score/internal/revolve"
	"score/internal/rtm"
	"score/internal/simclock"
	"score/internal/wavefield"
)

// benchRun is a bare run at the Small scale trimmed a little further so
// every figure benchmark iteration stays under a few seconds.
func benchRun() experiments.Run {
	s := experiments.Small()
	s.Snapshots = 64
	s.Aggregate = 2 * fabric.GB
	return experiments.Run{Scale: s}
}

const mb = 1 << 20

// reportRows attaches the headline per-configuration throughputs of a
// figure to the benchmark output.
func reportRows(b *testing.B, fig experiments.FigureResult, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	var scoreRest, uvmRest, adiosRest float64
	var n1, n2, n3 int
	for _, r := range fig.Rows {
		switch r.Combo.Approach {
		case experiments.Score:
			scoreRest += r.RestBps
			n1++
		case experiments.UVM:
			uvmRest += r.RestBps
			n2++
		case experiments.ADIOS2:
			adiosRest += r.RestBps
			n3++
		}
	}
	if n1 > 0 {
		b.ReportMetric(scoreRest/float64(n1)/mb, "score-restore-MB/s")
	}
	if n2 > 0 {
		b.ReportMetric(uvmRest/float64(n2)/mb, "uvm-restore-MB/s")
	}
	if n3 > 0 {
		b.ReportMetric(adiosRest/float64(n3)/mb, "adios-restore-MB/s")
	}
}

// BenchmarkTable1Approaches runs one reverse-order shot per Table 1
// configuration (sub-benchmark per row).
func BenchmarkTable1Approaches(b *testing.B) {
	for _, combo := range experiments.Table1() {
		combo := combo
		b.Run(combo.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.ShotConfig{
					Uniform: true, WaitForFlush: true, Order: rtm.Reverse, Combo: combo,
				}
				benchRun().Apply(&cfg)
				res, err := experiments.RunShot(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanCheckpointThroughput()/mb, "ckpt-MB/s")
				b.ReportMetric(res.MeanRestoreThroughput()/mb, "restore-MB/s")
			}
		})
	}
}

// BenchmarkFig4TraceGen regenerates the snapshot-size distribution.
func BenchmarkFig4TraceGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Fig4(benchRun().Scale, 32)
		if err != nil {
			b.Fatal(err)
		}
		if len(stats) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig5aUniformWait(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5(benchRun(), true)
		reportRows(b, fig, err)
	}
}

func BenchmarkFig5bVariableWait(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5(benchRun(), false)
		reportRows(b, fig, err)
	}
}

func BenchmarkFig6aUniformNoWait(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6(benchRun(), true)
		reportRows(b, fig, err)
	}
}

func BenchmarkFig6bVariableNoWait(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6(benchRun(), false)
		reportRows(b, fig, err)
	}
}

func BenchmarkFig7PrefetchDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7(benchRun())
		if err != nil {
			b.Fatal(err)
		}
		all := fig.Series["All hints"]
		if len(all) == 0 {
			b.Fatal("no series")
		}
		var dist float64
		for _, p := range all {
			dist += float64(p.PrefetchDistance)
		}
		b.ReportMetric(dist/float64(len(all)), "mean-prefetch-distance")
	}
}

func BenchmarkFig8aComputeInterval(b *testing.B) {
	intervals := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8a(benchRun(), intervals)
		reportRows(b, fig, err)
	}
}

func BenchmarkFig8bGPUCache(b *testing.B) {
	s := benchRun()
	caches := []int64{s.GPUCache / 2, s.GPUCache, s.GPUCache * 2}
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8b(s, caches)
		reportRows(b, fig, err)
	}
}

func BenchmarkFig9aTightlyCoupled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(benchRun(), true, []int{8, 16})
		reportRows(b, fig, err)
	}
}

func BenchmarkFig9bEmbarrassinglyParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(benchRun(), false, []int{8, 16})
		reportRows(b, fig, err)
	}
}

// --- Ablations of the §4.1 design principles ---

// ablationShot runs the irregular variable-size shot (the hardest case,
// §5.4.3) with the given Score configuration mutations.
func ablationShot(b *testing.B, mutate func(*experiments.ShotConfig)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := experiments.ShotConfig{
			Uniform: false, WaitForFlush: false, Order: rtm.Irregular,
			Combo: experiments.Combo{Approach: experiments.Score, Hints: experiments.AllHints},
		}
		benchRun().Apply(&cfg)
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := experiments.RunShot(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanCheckpointThroughput()/mb, "ckpt-MB/s")
		b.ReportMetric(res.MeanRestoreThroughput()/mb, "restore-MB/s")
		b.ReportMetric(res.TotalIOWait().Seconds(), "io-wait-s")
	}
}

// BenchmarkAblationEvictionPolicy compares the paper's gap-aware scored
// policy (§4.2) against every other registered eviction policy (the
// classic baselines plus the DBMS-inspired suite).
func BenchmarkAblationEvictionPolicy(b *testing.B) {
	for _, pol := range cachebuf.Policies() {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			ablationShot(b, func(cfg *experiments.ShotConfig) { cfg.EvictionPolicy = pol })
		})
	}
}

// BenchmarkAblationSplitCache compares the shared flush/prefetch cache
// (§4.1.2) against split half-size regions.
func BenchmarkAblationSplitCache(b *testing.B) {
	b.Run("shared", func(b *testing.B) { ablationShot(b, nil) })
	b.Run("split", func(b *testing.B) {
		ablationShot(b, func(cfg *experiments.ShotConfig) { cfg.SplitCache = true })
	})
}

// BenchmarkAblationNoPinning compares the unified life cycle (§4.1.3,
// prefetched replicas pinned until consumed) against thrashable caching.
func BenchmarkAblationNoPinning(b *testing.B) {
	b.Run("pinned", func(b *testing.B) { ablationShot(b, nil) })
	b.Run("unpinned", func(b *testing.B) {
		ablationShot(b, func(cfg *experiments.ShotConfig) { cfg.NoPinning = true })
	})
}

// BenchmarkAblationOnDemandAlloc compares pre-allocated pinned caches
// (§4.1.4, registration paid once at initialization, before the shot)
// against per-checkpoint pinned allocation during the run.
func BenchmarkAblationOnDemandAlloc(b *testing.B) {
	b.Run("preallocated", func(b *testing.B) {
		ablationShot(b, func(cfg *experiments.ShotConfig) { cfg.UpfrontHostInit = true })
	})
	b.Run("ondemand", func(b *testing.B) {
		ablationShot(b, func(cfg *experiments.ShotConfig) { cfg.OnDemandAlloc = true })
	})
}

// BenchmarkAblationHostStager compares multi-tier concurrent prefetching
// (§4.3.1's T_PF across all tiers) against per-promotion serialized hops.
// The uniform WAIT+reverse shot ends on the SSD-resident tail, where the
// staging overlap matters most.
func BenchmarkAblationHostStager(b *testing.B) {
	wait := func(cfg *experiments.ShotConfig) {
		cfg.Uniform = true
		cfg.WaitForFlush = true
		cfg.Order = rtm.Reverse
		// 96 x 32 MiB = 3 GiB per rank against a 2 GiB host cache:
		// the backward pass ends on an SSD-resident tail.
		cfg.Snapshots = 96
	}
	b.Run("staged", func(b *testing.B) { ablationShot(b, wait) })
	b.Run("serialized", func(b *testing.B) {
		ablationShot(b, func(cfg *experiments.ShotConfig) {
			wait(cfg)
			cfg.NoHostStager = true
		})
	})
}

// --- Microbenchmarks of the core mechanisms ---

// BenchmarkCachebufReserveEvict measures one reserve+evict cycle of the
// gap-aware policy on a fragmented buffer.
func BenchmarkCachebufReserveEvict(b *testing.B) {
	clk := simclock.NewVirtual()
	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		o := alwaysEvictable{}
		buf := cachebuf.New(clk, "bench", 1<<30, o)
		// Fragment the buffer with variable-size entries.
		for i := cachebuf.ID(0); i < 64; i++ {
			if _, err := buf.Reserve(i, 1<<20+int64(i)*4096); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := cachebuf.ID(1000 + i)
			if _, err := buf.Reserve(id, 8<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	<-done
}

type alwaysEvictable struct{}

func (alwaysEvictable) Evictable(cachebuf.ID) bool                        { return true }
func (alwaysEvictable) TimeToEvictable(cachebuf.ID) (time.Duration, bool) { return 0, true }
func (alwaysEvictable) PrefetchDistance(cachebuf.ID) int                  { return 1 }
func (alwaysEvictable) Evicted(cachebuf.ID)                               {}

// BenchmarkFabricTransfer measures the discrete-event cost of one
// contended link transfer.
func BenchmarkFabricTransfer(b *testing.B) {
	clk := simclock.NewVirtual()
	done := make(chan struct{})
	clk.Go(func() {
		defer close(done)
		l := fabric.NewLink(clk, "bench", 25*fabric.GB, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.TryTransfer(128 << 20); err != nil {
				b.Error(err)
				return
			}
		}
	})
	<-done
}

// BenchmarkRevolveSchedule measures schedule generation for the paper's
// 384-snapshot shots under a tight slot budget.
func BenchmarkRevolveSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		actions, err := revolve.Schedule(384, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(actions) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// BenchmarkWavefieldCompress measures snapshot compression of a live
// wavefield.
func BenchmarkWavefieldCompress(b *testing.B) {
	p, err := wavefield.NewPropagator(wavefield.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p.Step()
	}
	snap := p.Snapshot()
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := wavefield.Compress(snap)
		if len(comp) == 0 {
			b.Fatal("empty compression")
		}
	}
}

// --- Extensions: the paper's future-work items (§6) ---

// BenchmarkExtensionSharedHostCache compares private per-client host
// caches against one node-wide pool (the paper's future-work load
// balancing) on the variable-size workload whose cross-rank size
// disparity motivates it.
func BenchmarkExtensionSharedHostCache(b *testing.B) {
	run := func(b *testing.B, shared bool) {
		for i := 0; i < b.N; i++ {
			cfg := experiments.ShotConfig{
				Uniform: false, WaitForFlush: true, Order: rtm.Reverse,
				Combo:             experiments.Combo{Approach: experiments.Score, Hints: experiments.AllHints},
				SharedHostPerNode: shared,
			}
			benchRun().Apply(&cfg)
			// Widen the cross-rank shot-size disparity well past the
			// private per-client capacity: this is the imbalance the
			// shared pool exists to absorb.
			cfg.Trace.MinAggregate = cfg.HostCache / 2
			cfg.Trace.MaxAggregate = cfg.HostCache * 2
			res, err := experiments.RunShot(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MeanRestoreThroughput()/mb, "restore-MB/s")
			b.ReportMetric(res.TotalIOWait().Seconds(), "io-wait-s")
		}
	}
	b.Run("private", func(b *testing.B) { run(b, false) })
	b.Run("shared", func(b *testing.B) { run(b, true) })
}

// BenchmarkExtensionGPUDirect compares host-staged flushing/prefetching
// against direct GPU↔SSD transfers (the GPUDirect-storage future-work
// item): direct transfers skip the host copy but forfeit the host tier's
// capacity as a cache level.
func BenchmarkExtensionGPUDirect(b *testing.B) {
	run := func(b *testing.B, direct bool) {
		for i := 0; i < b.N; i++ {
			cfg := experiments.ShotConfig{
				Uniform: true, WaitForFlush: true, Order: rtm.Reverse,
				Combo:     experiments.Combo{Approach: experiments.Score, Hints: experiments.AllHints},
				GPUDirect: direct,
			}
			benchRun().Apply(&cfg)
			res, err := experiments.RunShot(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MeanCheckpointThroughput()/mb, "ckpt-MB/s")
			b.ReportMetric(res.MeanRestoreThroughput()/mb, "restore-MB/s")
			b.ReportMetric(res.TotalIOWait().Seconds(), "io-wait-s")
		}
	}
	b.Run("host-staged", func(b *testing.B) { run(b, false) })
	b.Run("gpudirect", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationChunkedPipeline compares monolithic store-and-forward
// transfers against chunked multi-stream pipelining (§4.3) on the
// GPUDirect shot, where every flush and every promotion crosses two hops
// (PCIe + NVMe) and so benefits from chunk-level overlap end to end.
func BenchmarkAblationChunkedPipeline(b *testing.B) {
	run := func(b *testing.B, chunk int64) {
		for i := 0; i < b.N; i++ {
			cfg := experiments.ShotConfig{
				Uniform: true, WaitForFlush: true, Order: rtm.Reverse,
				Combo:     experiments.Combo{Approach: experiments.Score, Hints: experiments.AllHints},
				GPUDirect: true,
			}
			benchRun().Apply(&cfg)
			cfg.ChunkSize = chunk
			res, err := experiments.RunShot(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MeanCheckpointThroughput()/mb, "ckpt-MB/s")
			b.ReportMetric(res.MeanRestoreThroughput()/mb, "restore-MB/s")
			b.ReportMetric(res.TotalIOWait().Seconds(), "io-wait-s")
		}
	}
	b.Run("monolithic", func(b *testing.B) { run(b, 0) })
	b.Run("chunked", func(b *testing.B) { run(b, benchRun().UniformSize/8) })
}
