// Preemption-drain scenario: the scheduling-events robustness layer's
// headline question — when the scheduler says "this rank is reclaimed in
// G seconds", how much of the resident checkpoint backlog can the tier
// ladder make durable inside the window? The sweep runs one rank with a
// multi-version backlog against a ladder of grace windows; each run ends
// with a complete drain manifest (durable vs. explicitly abandoned —
// never a flush left in flight past the deadline), and the cells report
// the deadline-hit rate and drain throughput per window. The paper-scale
// sweep asks the calibration question: 12 × 4 GiB = 48 GiB of backlog
// against windows from 2 s to 30 s on DGX-A100 bandwidths.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"score"
	"score/internal/fabric"
	"score/internal/slo"
)

// The shipped sweep: 12 versions written 10 ms apart, faster than the
// flush chain drains them, so a backlog builds; 3 seeded runs per grace
// window, each landing the notice at a different point of the writes.
const (
	preemptVersions = 12
	preemptInterval = 10 * time.Millisecond
	preemptRuns     = 3
)

// preemptSweep is the version size and the grace windows at scale s: the
// paper-scale 4 GiB versions against 2 s to 30 s or, at a reduced scale,
// a 1/16-size backlog with windows shrunk to match, which keeps the full
// sweep's miss-to-hit gradient.
func preemptSweep(s Scale) (int64, []time.Duration) {
	if s.Bandwidth != 1 {
		return 256 << 20, []time.Duration{125 * time.Millisecond, 312 * time.Millisecond, 1 * time.Second, 2 * time.Second}
	}
	return 4 << 30, []time.Duration{2 * time.Second, 5 * time.Second, 15 * time.Second, 30 * time.Second}
}

// PreemptCell aggregates the runs of one grace window.
type PreemptCell struct {
	// Window is the grace the notice granted.
	Window time.Duration
	// Runs and DeadlineHits count the window's runs and how many drains
	// finished inside the grace.
	Runs, DeadlineHits int
	// Byte tallies summed over the window's manifests: DurableBytes is
	// everything durable at drain end, DrainedBytes the subset the triage
	// itself flushed, AbandonedBytes what was failed open to explicit
	// loss, DiscardedBytes dropped discardable flushes.
	DurableBytes, DrainedBytes, AbandonedBytes, DiscardedBytes int64
	// DrainTime sums the actual notice-to-finish drain durations.
	DrainTime time.Duration
}

// HitRate is the fraction of runs whose drain met the deadline.
func (c PreemptCell) HitRate() float64 {
	if c.Runs == 0 {
		return 0
	}
	return float64(c.DeadlineHits) / float64(c.Runs)
}

// DrainThroughput is the sweep's headline rate: GB the triage made
// durable per second of granted grace window.
func (c PreemptCell) DrainThroughput() float64 {
	grace := c.Window.Seconds() * float64(c.Runs)
	if grace <= 0 {
		return 0
	}
	return float64(c.DrainedBytes) / 1e9 / grace
}

// PreemptResult reports one sweep.
type PreemptResult struct {
	// Backlog is the bytes each run writes: every version of the sweep.
	Backlog int64
	// Cells holds one row per grace window, in sweep order.
	Cells []PreemptCell
	// SampleManifest is the first run's full manifest — the artifact the
	// scheduler (and EXPERIMENTS.md) shows per version.
	SampleManifest score.DrainManifest
	// SLO holds the sweep-level compliance report when the Run set SLO
	// (nil otherwise).
	SLO *slo.Report
}

// Preemption runs the sweep at the Run's scale. Deterministic: the same
// Run reproduces identical cells and manifests.
func Preemption(run Run) (PreemptResult, error) {
	size, windows := preemptSweep(run.Scale)
	res := PreemptResult{Backlog: preemptVersions * size}
	// Under SLO, the checked-in sweep-level drain objective watches the
	// DeadlineMet stream: each (window, run) pair contributes one
	// observation on a synthetic timeline advancing one second per run
	// (the runs live on separate virtual clocks, so the sweep index is
	// the only shared time axis) — tight grace windows early in the
	// sweep burn budget, generous ones later pay it back.
	var eng *slo.Engine
	var step int64
	if run.SLO {
		e, err := slo.NewEngine(func() time.Duration {
			return time.Duration(step) * time.Second
		}, slo.PreemptObjectives()...)
		if err != nil {
			return res, err
		}
		eng = e
	}
	for _, w := range windows {
		cell := PreemptCell{Window: w}
		for r := 0; r < preemptRuns; r++ {
			m, err := preemptRun(run, size, w, r)
			if err != nil {
				return res, err
			}
			if !m.Complete() {
				return res, fmt.Errorf("experiments: window %v run %d: incomplete drain manifest: %s", w, r, m)
			}
			cell.Runs++
			if m.DeadlineMet {
				cell.DeadlineHits++
			}
			cell.DurableBytes += m.DurableBytes
			cell.AbandonedBytes += m.AbandonedBytes
			cell.DiscardedBytes += m.DiscardedBytes
			for _, e := range m.Entries {
				if e.Outcome == score.DrainFlushed {
					cell.DrainedBytes += e.Size
				}
			}
			cell.DrainTime += m.Finished - m.Started
			if res.SampleManifest.Entries == nil {
				res.SampleManifest = m
			}
			if eng != nil {
				step++
				eng.ObserveDrain(m.DeadlineMet)
			}
		}
		res.Cells = append(res.Cells, cell)
	}
	if eng != nil {
		eng.Finalize()
		rep := eng.Report()
		// No ledger rides the synthetic timeline, and the event count is
		// held strictly to the number of runs.
		if err := reconcileSLO(&rep, map[slo.Kind]int64{slo.KindDrainDeadline: step}, nil); err != nil {
			return res, fmt.Errorf("experiments: preempt %w", err)
		}
		res.SLO = &rep
		run.reportSLO("preempt", rep)
	}
	return res, nil
}

// preemptRun executes one seeded run as the shot "preempt/<grace>/run<r>":
// build the backlog of size-byte versions, let the injector-scheduled
// notice land mid-phase, and return the manifest the drain timer retained.
func preemptRun(run Run, size int64, grace time.Duration, r int) (score.DrainManifest, error) {
	sim, err := newSimShot(run, fmt.Sprintf("preempt/%v/run%d", grace, r), nil,
		score.WithNodes(1), score.WithGPUsPerNode(1))
	if err != nil {
		return score.DrainManifest{}, err
	}
	inj := sim.NewFaultInjector(scenarioSeed + int64(r))
	// Slide the notice across the write phase: early notices drain a
	// shallow backlog, the last run's the full one. Each write costs the
	// compute interval plus the D2D snapshot copy, so the phase estimate
	// must include both or late notices land mid-backlog.
	d2d := time.Duration(float64(size) / fabric.DGXA100().D2DBandwidth * float64(time.Second))
	writePhase := preemptVersions * (preemptInterval + d2d)
	noticeAt := time.Duration(float64(writePhase) * float64(r+1) / preemptRuns)
	inj.AddPreempts(score.PreemptRank(0, 0, noticeAt, grace))

	var m score.DrainManifest
	var ok bool
	// Both cache tiers hold the whole backlog plus slack, except the GPU
	// tier is capped at 36 GiB — inside the A100's 40 GiB HBM — so the
	// paper-scale 48 GiB backlog spreads across the ladder the way a real
	// job's would.
	hostCache := (preemptVersions + 2) * size
	gpuCache := min(hostCache, 36<<30)
	_, err = sim.run(false, func() error {
		cl, err := sim.client(0, 0,
			score.WithGPUCache(gpuCache),
			score.WithHostCache(hostCache),
			score.WithAsyncHostInit(),
			// Four streams per flusher pool; the drain triage's flushes
			// run on the T_H2F pool, so they share its width.
			score.WithFlushStreams(4),
			score.WithFaultInjector(inj))
		if err != nil {
			return err
		}
		for v := int64(0); v < preemptVersions; v++ {
			if err := cl.CheckpointVirtual(v, size); err != nil {
				break // the notice (or the reclaim) landed: stop writing
			}
			cl.Compute(preemptInterval)
		}
		// Sleep past the reclaim so the drain timer has certainly finished;
		// the slack also covers a deadline-missing drain's tail.
		horizon := noticeAt + grace + 2*time.Second
		if d := horizon - sim.Clock().Now(); d > 0 {
			sim.Clock().Sleep(d)
		}
		m, ok = cl.DrainManifest()
		return nil
	})
	if err != nil {
		return m, err
	}
	if !ok {
		return m, errors.New("experiments: preemption notice produced no drain manifest")
	}
	return m, nil
}
