// Preemption-drain scenario: the scheduling-events robustness layer's
// headline question — when the scheduler says "this rank is reclaimed in
// G seconds", how much of the resident checkpoint backlog can the tier
// ladder make durable inside the window? The sweep runs one rank with a
// multi-version backlog against a ladder of grace windows; each run ends
// with a complete drain manifest (durable vs. explicitly abandoned —
// never a flush left in flight past the deadline), and the cells report
// the deadline-hit rate and drain throughput per window. The paper-scale
// default asks the ISSUE's calibration question: 12 × 4 GiB = 48 GiB of
// backlog against windows from 2 s to 30 s on DGX-A100 bandwidths.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"score"
	"score/internal/fabric"
	"score/internal/slo"
)

// PreemptConfig parameterizes one preemption-drain sweep.
type PreemptConfig struct {
	// Checkpoints is the backlog depth (versions written before or while
	// the notice lands; default 12).
	Checkpoints int
	// Size is the per-version payload size in bytes (default 4 GiB;
	// 256 MiB at a reduced Scale).
	Size int64
	// Interval is the compute time between writes (default 10 ms) — the
	// backlog builds because writes outpace the flush chain.
	Interval time.Duration
	// Windows are the grace windows to sweep (default 2 s, 5 s, 15 s,
	// 30 s; 125 ms, 312 ms, 1 s, 2 s at a reduced Scale).
	Windows []time.Duration
	// Runs is the number of seeded runs per window; each run varies when
	// in the write phase the notice lands (default 3).
	Runs int
}

// withDefaults fills the paper-scale sweep or, at a reduced scale, a
// 1/16-size backlog with windows shrunk to match, which keeps the full
// sweep's miss-to-hit gradient.
func (c PreemptConfig) withDefaults(s Scale) PreemptConfig {
	reduced := s.Bandwidth > 0 && s.Bandwidth != 1
	if c.Checkpoints == 0 {
		c.Checkpoints = 12
	}
	if c.Size == 0 {
		c.Size = 4 << 30
		if reduced {
			c.Size = 256 << 20
		}
	}
	if c.Interval == 0 {
		c.Interval = 10 * time.Millisecond
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{2 * time.Second, 5 * time.Second, 15 * time.Second, 30 * time.Second}
		if reduced {
			c.Windows = []time.Duration{125 * time.Millisecond, 312 * time.Millisecond, 1 * time.Second, 2 * time.Second}
		}
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	return c
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
	Config PreemptConfig
	// Cells holds one row per grace window, in sweep order.
	Cells []PreemptCell
	// SampleManifest is the first run's full manifest — the artifact the
	// scheduler (and EXPERIMENTS.md) shows per version.
	SampleManifest score.DrainManifest
	// SLO holds the sweep-level compliance report when the Run set SLO
	// (nil otherwise).
	SLO *slo.Report
}

// Preemption runs the sweep. Deterministic: the same config reproduces
// identical cells and manifests.
func Preemption(run Run, cfg PreemptConfig) (PreemptResult, error) {
	cfg = cfg.withDefaults(run.Scale)
	res := PreemptResult{Config: cfg}
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
	for _, w := range cfg.Windows {
		cell := PreemptCell{Window: w}
		for r := 0; r < cfg.Runs; r++ {
			m, err := preemptRun(run, cfg, w, r)
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
// build the backlog, let the injector-scheduled notice land mid-phase,
// and return the manifest the drain timer retained.
func preemptRun(run Run, cfg PreemptConfig, grace time.Duration, r int) (score.DrainManifest, error) {
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
	d2d := time.Duration(float64(cfg.Size) / fabric.DGXA100().D2DBandwidth * float64(time.Second))
	writePhase := time.Duration(cfg.Checkpoints) * (cfg.Interval + d2d)
	noticeAt := time.Duration(float64(writePhase) * float64(r+1) / float64(cfg.Runs))
	if noticeAt <= 0 {
		noticeAt = cfg.Interval / 2
	}
	inj.AddPreempts(score.PreemptRank(0, 0, noticeAt, grace))

	var m score.DrainManifest
	var ok bool
	// Both cache tiers hold the whole backlog plus slack, except the GPU
	// tier is capped at 36 GiB — inside the A100's 40 GiB HBM — so the
	// paper-scale 48 GiB backlog spreads across the ladder the way a real
	// job's would.
	hostCache := int64(cfg.Checkpoints+2) * cfg.Size
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
		for v := int64(0); v < int64(cfg.Checkpoints); v++ {
			if err := cl.CheckpointVirtual(v, cfg.Size); err != nil {
				break // the notice (or the reclaim) landed: stop writing
			}
			cl.Compute(cfg.Interval)
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
