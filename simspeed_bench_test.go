// Simulator-speed benchmarks: how fast the discrete-event engine itself
// runs, independent of the simulated hardware numbers. These are the
// regression gate behind BENCH_simspeed.json (make bench-smoke): raw
// simulator throughput is what bounds the multi-tenant and 100k-rank
// sweeps, so events/sec and allocs/op are tracked trajectories exactly
// like the simulated pipeline figures.
//
// Two throughput metrics are reported. events/sec counts MODEL events —
// the logical occurrences the workload is made of (a compute phase
// ending, a transfer completing), a closed-form count independent of how
// the engine schedules them. That is the PDES-standard committed-events
// rate and the gated headline: counting engine wakeups instead would
// reward an engine for doing redundant ones (the old broadcast-storm
// settle loop retired many wakeups per model event). wakeups/sec counts
// engine wakeups (simclock.EventCount) as a diagnostic of scheduling
// overhead per model event.
//
// Run with:
//
//	go test -bench BenchmarkSimSpeed -benchmem -run '^$' .
package score_test

import (
	"testing"
	"time"

	"score/internal/experiments"
	"score/internal/fabric"
	"score/internal/rtm"
	"score/internal/simclock"
)

// sweepRanks is the scale of the headline rank-sweep benchmark: far past
// paper scale (512 ranks), sized for the ROADMAP's 100k-rank ambition.
const (
	sweepRanks  = 10_000
	sweepLinks  = 128
	sweepRounds = 4
	// sweepModelEvents is the closed-form model-event count of one sweep:
	// each rank-round ends one compute phase and completes one transfer.
	sweepModelEvents = sweepRanks * sweepRounds * 2
)

// reportSimSpeed emits the two throughput metrics for a finished
// benchmark: model events/sec (gated) and engine wakeups/sec (diagnostic).
func reportSimSpeed(b *testing.B, modelEvents, wakeups uint64) {
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	b.ReportMetric(float64(modelEvents)/secs, "events/sec")
	b.ReportMetric(float64(wakeups)/secs, "wakeups/sec")
}

// runRankSweep drives ranks simulated processes through rounds of
// compute-then-flush against a pool of shared links — the skeleton of
// every scenario in internal/experiments, reduced to the discrete-event
// hot path: timer registration (compute sleeps), link fair-share
// membership churn (transfers), and cond handoff (waitgroup join).
// Compute times are quantized to a handful of values, so ranks form
// bulk-synchronous same-instant cohorts — the dominant pattern when 10k
// ranks checkpoint at iteration boundaries.
func runRankSweep(tb testing.TB, ranks, linkCount, rounds int, opts ...simclock.VirtualOption) {
	clk := simclock.NewVirtual(opts...)
	links := make([]*fabric.Link, linkCount)
	for j := range links {
		links[j] = fabric.NewLink(clk, "sweep", 25*fabric.GB, time.Microsecond)
	}
	clk.Run(func() {
		wg := simclock.NewWaitGroup(clk)
		for r := 0; r < ranks; r++ {
			r := r
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				l := links[r%linkCount]
				for k := 0; k < rounds; k++ {
					jitter := ((r*2654435761 + k*40503) % 16) * 50
					clk.Sleep(time.Duration(50+jitter) * time.Microsecond)
					if _, err := l.TryTransfer(8 << 20); err != nil {
						tb.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
	})
}

// BenchmarkSimSpeed10kRankSweep is the headline simulator-speed number:
// a 10k-rank compute/flush sweep over 128 shared links. allocs/op is the allocation bill for one whole sweep.
func BenchmarkSimSpeed10kRankSweep(b *testing.B) {
	b.ReportAllocs()
	startWake := simclock.EventCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRankSweep(b, sweepRanks, sweepLinks, sweepRounds)
	}
	b.StopTimer()
	reportSimSpeed(b, uint64(b.N)*sweepModelEvents, simclock.EventCount()-startWake)
}

// BenchmarkSimSpeedPipelineShot measures the full runtime stack on the
// BENCH_pipeline configuration (chunked GPUDirect shot): wall time for
// one complete checkpoint/restore shot through core, cachebuf, fabric,
// and metrics. The shot has no closed-form model-event count, so here
// events/sec tracks engine wakeups — comparable across runs of the same
// configuration, which is all the trajectory needs.
func BenchmarkSimSpeedPipelineShot(b *testing.B) {
	b.ReportAllocs()
	startWake := simclock.EventCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := experiments.ShotConfig{
			Uniform: true, WaitForFlush: true, Order: rtm.Reverse,
			Combo:     experiments.Combo{Approach: experiments.Score, Hints: experiments.AllHints},
			GPUDirect: true,
		}
		benchRun().Apply(&cfg)
		cfg.ChunkSize = benchRun().UniformSize / 8
		if _, err := experiments.RunShot(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	wakes := simclock.EventCount() - startWake
	reportSimSpeed(b, wakes, wakes)
}

// BenchmarkSimSpeedContendedLink isolates the fair-share settle path: 256
// transfers contending on one link, the membership-churn worst case the
// incremental settle exists for.
func BenchmarkSimSpeedContendedLink(b *testing.B) {
	b.ReportAllocs()
	startWake := simclock.EventCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk := simclock.NewVirtual()
		l := fabric.NewLink(clk, "contended", 25*fabric.GB, 0)
		clk.Run(func() {
			wg := simclock.NewWaitGroup(clk)
			for t := 0; t < 256; t++ {
				t := t
				wg.Add(1)
				clk.Go(func() {
					defer wg.Done()
					// Staggered starts and distinct sizes: membership
					// changes on nearly every completion.
					clk.Sleep(time.Duration(t) * time.Microsecond)
					if _, err := l.TryTransfer(4<<20 + int64(t)<<12); err != nil {
						b.Error(err)
					}
				})
			}
			wg.Wait()
		})
	}
	b.StopTimer()
	// Model events: each of the 256 transfers is one start (staggered
	// sleep ending) and one completion.
	reportSimSpeed(b, uint64(b.N)*256*2, simclock.EventCount()-startWake)
}
