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
	// SLO holds the cell's compliance report when the Run set SLO (nil
	// otherwise). The degraded cells are where the restore-tail
	// objective fires; the healthy control must stay clean.
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
	res := StragglerResult{Config: cfg}
	for _, sev := range cfg.Severities {
		for _, hedged := range []bool{false, true} {
			cell, err := stragglerRun(run, cfg, sev, hedged)
			if err != nil {
				return res, err
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// stragglerRun executes one cell as the shot "straggler/<cell label>":
// healthy write phase (calibrates the health estimator), degrade the NVMe
// link, restore newest-first, and report the blocking-time quantiles.
// The cell's SLO engine rides its own virtual clock: compliance is per
// (severity, hedging) run.
func stragglerRun(run Run, cfg StragglerConfig, severity float64, hedged bool) (StragglerCell, error) {
	cell := StragglerCell{Severity: severity, Hedged: hedged}
	sim, err := newSimShot(run, "straggler/"+cell.Label(), slo.StragglerObjectives(),
		score.WithNodes(1), score.WithGPUsPerNode(1))
	if err != nil {
		return cell, err
	}
	inj := sim.NewFaultInjector(scenarioSeed)

	// The restores only read: the flushes drained before them.
	res, err := sim.run(true, func() error {
		opts := []score.ClientOption{
			// Both cache tiers hold only a few versions, so most restores
			// must read from the durable ladder — the path the straggler
			// sits on.
			score.WithGPUCache(4 * cfg.Size),
			score.WithHostCache(4 * cfg.Size),
			score.WithAsyncHostInit(),
			score.WithFlushStreams(2),
			// PFS persistence gives every version the deeper replica the
			// hedge races against (and the quarantine reroutes to).
			score.WithPersistToPFS(),
			score.WithFaultInjector(inj),
		}
		if hedged {
			opts = append(opts, score.WithHedgedRestores())
		}
		cl, err := sim.client(0, 0, opts...)
		if err != nil {
			return err
		}

		// Healthy write phase: every version lands on SSD and PFS at
		// nominal speed, seeding the per-class latency floors the
		// adaptive hedge deadlines derive from.
		for v := int64(0); v < int64(cfg.Checkpoints); v++ {
			if err := cl.CheckpointVirtual(v, cfg.Size); err != nil {
				return fmt.Errorf("checkpoint %d: %w", v, err)
			}
			cl.Compute(cfg.Interval)
		}
		if err := cl.WaitFlush(); err != nil {
			return fmt.Errorf("wait flush: %w", err)
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
				return fmt.Errorf("restart %d: %w", v, err)
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
		return nil
	})
	cell.SLO = res.SLO
	return cell, err
}
