// Straggler scenario: the gray-failure robustness layer's headline
// question — when one deep link silently degrades (the drive that still
// answers, just 20× slower), how much restore tail latency does the
// hedging machinery shave off? The sweep writes a backlog through a
// healthy flush phase (calibrating the per-link-class health estimator
// at nominal speed), then degrades the node's NVMe link and restores
// everything, measuring per-restore blocking with hedging off and on.
// Hedged runs race the next-deeper replica (PFS) once a read blows past
// its adaptive deadline, and quarantine the slow tier outright when its
// EWMA slowdown breaches — so the tail is bounded by the PFS read time,
// not the straggler's.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"score"
	"score/internal/slo"
)

// StragglerConfig parameterizes one straggler sweep.
type StragglerConfig struct {
	// Checkpoints is the number of versions written and restored
	// (default 16).
	Checkpoints int
	// Size is the per-version payload size in bytes (default 64 MiB).
	Size int64
	// Interval is the compute time between writes and between restores
	// (default 5 ms).
	Interval time.Duration
	// Severities are the NVMe slowdown factors to sweep: a severity s
	// degrades the link to 1/s of nominal bandwidth for the whole
	// restore phase. Severity 1 is the healthy control (default
	// {1, 5, 20}).
	Severities []float64
	// GPUCache and HostCache size the cache tiers. Defaults hold only a
	// few versions so most restores must read from the durable ladder —
	// the path the straggler sits on.
	GPUCache, HostCache int64
	// FlushStreams sizes the flusher pool (default 2).
	FlushStreams int
	// Seed drives the injector schedule.
	Seed int64
	// Objectives, when non-empty, attaches an SLO engine per cell. Left
	// nil under a Run with SLO set, the checked-in straggler restore-tail
	// objective set applies.
	Objectives []slo.Objective
}

func (c StragglerConfig) withDefaults() StragglerConfig {
	if c.Checkpoints == 0 {
		c.Checkpoints = 16
	}
	if c.Size == 0 {
		c.Size = 64 << 20
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Millisecond
	}
	if len(c.Severities) == 0 {
		c.Severities = []float64{1, 5, 20}
	}
	if c.GPUCache == 0 {
		c.GPUCache = 4 * c.Size
	}
	if c.HostCache == 0 {
		c.HostCache = 4 * c.Size
	}
	if c.FlushStreams == 0 {
		c.FlushStreams = 2
	}
	if c.Seed == 0 {
		c.Seed = 2023
	}
	return c
}

// StragglerCell is one (severity, hedging) run's restore-tail
// measurements.
type StragglerCell struct {
	// Severity is the NVMe slowdown factor this cell ran under.
	Severity float64
	// Hedged reports whether WithHedgedRestores was enabled.
	Hedged bool
	// Restores counts the measured restore calls; RestoredBytes their
	// payload total.
	Restores      int
	RestoredBytes int64
	// P50, P99 and Max summarize per-restore blocking time (the full
	// Restart call on the virtual clock).
	P50, P99, Max time.Duration
	// Hedge/stall/quarantine counters from the client's Stats at run
	// end. All zero when Hedged is false.
	HedgesLaunched, HedgeWins, HedgeWastedBytes int64
	StallsDetected, StallsRerouted              int64
	HealthQuarantines                           int64
	// SLO holds the cell's compliance report when the sweep ran with
	// objectives (nil otherwise). The degraded cells are where the
	// restore-tail objective fires; the healthy control must stay clean.
	SLO *slo.Report
}

// Label names the cell as in the table.
func (c StragglerCell) Label() string {
	mode := "unhedged"
	if c.Hedged {
		mode = "hedged"
	}
	return fmt.Sprintf("sev-%g-%s", c.Severity, mode)
}

// StragglerResult reports one sweep: cells in severity order, unhedged
// before hedged within each severity.
type StragglerResult struct {
	Config StragglerConfig
	Cells  []StragglerCell
}

// Cell returns the cell for (severity, hedged), or false when the sweep
// did not run it.
func (r StragglerResult) Cell(severity float64, hedged bool) (StragglerCell, bool) {
	for _, c := range r.Cells {
		if c.Severity == severity && c.Hedged == hedged {
			return c, true
		}
	}
	return StragglerCell{}, false
}

// Straggler runs the sweep. Deterministic: the same config reproduces
// identical cells.
func Straggler(run Run, cfg StragglerConfig) (StragglerResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Objectives == nil && run.SLO {
		cfg.Objectives = slo.StragglerObjectives()
	}
	res := StragglerResult{Config: cfg}
	for _, sev := range cfg.Severities {
		for _, hedged := range []bool{false, true} {
			cell, err := stragglerRun(cfg, sev, hedged)
			if err != nil {
				return res, fmt.Errorf("experiments: straggler %s: %w", cell.Label(), err)
			}
			if cell.SLO != nil {
				run.reportSLO("straggler/"+cell.Label(), *cell.SLO)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// stragglerRun executes one cell: healthy write phase (calibrates the
// health estimator), degrade the NVMe link, restore newest-first, and
// report the blocking-time quantiles.
func stragglerRun(cfg StragglerConfig, severity float64, hedged bool) (StragglerCell, error) {
	cell := StragglerCell{Severity: severity, Hedged: hedged}
	sim, err := score.NewSim(score.WithNodes(1), score.WithGPUsPerNode(1))
	if err != nil {
		return cell, err
	}
	inj := sim.NewFaultInjector(cfg.Seed)

	// The SLO engine rides the cell's own virtual clock, watching the
	// restore critical paths the client feeds it. Each cell gets a fresh
	// engine: compliance is per (severity, hedging) run.
	var eng *slo.Engine
	if len(cfg.Objectives) > 0 {
		if eng, err = sim.NewSLOEngine(cfg.Objectives...); err != nil {
			return cell, err
		}
	}

	var runErr error
	sim.Run(func() {
		opts := []score.ClientOption{
			score.WithGPUCache(cfg.GPUCache),
			score.WithHostCache(cfg.HostCache),
			score.WithAsyncHostInit(),
			score.WithFlushStreams(cfg.FlushStreams),
			// PFS persistence gives every version the deeper replica the
			// hedge races against (and the quarantine reroutes to).
			score.WithPersistToPFS(),
			score.WithFaultInjector(inj),
		}
		if hedged {
			opts = append(opts, score.WithHedgedRestores())
		}
		if eng != nil {
			opts = append(opts, score.WithSLO(eng))
		}
		cl, err := sim.NewClient(0, 0, opts...)
		if err != nil {
			runErr = err
			return
		}
		defer cl.Close()

		// Healthy write phase: every version lands on SSD and PFS at
		// nominal speed, seeding the per-class latency floors the
		// adaptive hedge deadlines derive from.
		for v := int64(0); v < int64(cfg.Checkpoints); v++ {
			if err := cl.CheckpointVirtual(v, cfg.Size); err != nil {
				runErr = fmt.Errorf("checkpoint %d: %w", v, err)
				return
			}
			cl.Compute(cfg.Interval)
		}
		if err := cl.WaitFlush(); err != nil {
			runErr = fmt.Errorf("wait flush: %w", err)
			return
		}

		// The straggler appears: the NVMe link silently drops to 1/s of
		// nominal bandwidth for the whole restore phase. It never errors
		// — a pure gray fault.
		if severity > 1 {
			now := sim.Clock().Now()
			inj.Add(score.SlowLink(score.FaultNVMe, 1/severity, now, now+24*time.Hour))
		}

		// Backward pass: restore newest-first, timing each Restart call
		// on the virtual clock. The small caches force most reads onto
		// the degraded ladder.
		durs := make([]time.Duration, 0, cfg.Checkpoints)
		for v := int64(cfg.Checkpoints) - 1; v >= 0; v-- {
			t0 := sim.Clock().Now()
			if _, err := cl.Restart(v); err != nil {
				runErr = fmt.Errorf("restart %d: %w", v, err)
				return
			}
			durs = append(durs, sim.Clock().Now()-t0)
			cell.Restores++
			cell.RestoredBytes += cfg.Size
			cl.Compute(cfg.Interval)
		}

		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		cell.P50 = durs[len(durs)/2]
		cell.P99 = durs[(len(durs)*99)/100]
		cell.Max = durs[len(durs)-1]

		st := cl.Stats()
		cell.HedgesLaunched = st.HedgesLaunched
		cell.HedgeWins = st.HedgeWins
		cell.HedgeWastedBytes = st.HedgeWastedBytes
		cell.StallsDetected = st.StallsDetected
		cell.StallsRerouted = st.StallsRerouted
		cell.HealthQuarantines = st.HealthQuarantines

		if eng != nil {
			eng.Finalize()
			rep := eng.Report()
			if err := reconcileSLO(&rep, cl.MetricsSummary(), nil); err != nil {
				runErr = fmt.Errorf("slo conservation: %w", err)
				return
			}
			cell.SLO = &rep
		}

		if err := cl.CheckMetricsInvariants(false); err != nil {
			runErr = fmt.Errorf("metrics invariants: %w", err)
		}
	})
	return cell, runErr
}
