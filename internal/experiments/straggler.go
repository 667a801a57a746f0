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
	"io"
	"sort"
	"time"

	"score"
	"score/internal/report"
	"score/internal/slo"
)

// The shipped sweep: 16 versions of 64 MiB written and restored 5 ms
// apart, under each NVMe slowdown severity of Straggler.
const (
	stragglerVersions = 16
	stragglerSize     = 64 << 20
	stragglerInterval = 5 * time.Millisecond
)

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
func (c StragglerCell) Label() string { return fmt.Sprintf("sev-%g-%s", c.Severity, c.mode()) }

// mode names the cell's hedging.
func (c StragglerCell) mode() string {
	if c.Hedged {
		return "hedged"
	}
	return "unhedged"
}

// StragglerResult reports one sweep: cells in severity order, unhedged
// before hedged within each severity.
type StragglerResult struct {
	// Backlog is the bytes each cell writes and restores.
	Backlog int64
	Cells   []StragglerCell
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

// Render prints the restore-tail contrast, one row per cell: the
// gray-failure machinery's value is the gap between the two P99 columns
// at high severity (hedge wins racing the PFS replica, or a health
// quarantine routing around the straggler entirely).
func (r StragglerResult) Render(w io.Writer) error {
	backlog := float64(r.Backlog) / 1e9
	tab := report.NewTable(
		fmt.Sprintf("Straggler restores — %.1f GB over a silently degraded NVMe link, SSD→PFS hedge ladder", backlog),
		"severity", "mode", "restores", "p50", "p99", "max", "hedges (wins)", "wasted", "stalls (rerouted)", "quarantines")
	for _, c := range r.Cells {
		tab.AddRow(
			fmt.Sprintf("%g×", c.Severity), c.mode(), c.Restores,
			c.P50, c.P99, c.Max,
			fmt.Sprintf("%d (%d)", c.HedgesLaunched, c.HedgeWins),
			sizeMB(c.HedgeWastedBytes),
			fmt.Sprintf("%d (%d)", c.StallsDetected, c.StallsRerouted),
			c.HealthQuarantines,
		)
	}
	return tab.Render(w)
}

// Straggler runs the sweep over NVMe slowdown severities 1, 5 and 20: a
// severity s degrades the link to 1/s of nominal bandwidth for the whole
// restore phase, and severity 1 is the healthy control. Deterministic:
// the same Run reproduces identical cells.
func Straggler(run Run) (StragglerResult, error) {
	res := StragglerResult{Backlog: stragglerVersions * stragglerSize}
	for _, sev := range []float64{1, 5, 20} {
		for _, hedged := range []bool{false, true} {
			cell, err := stragglerRun(run, sev, hedged)
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
func stragglerRun(run Run, severity float64, hedged bool) (StragglerCell, error) {
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
			score.WithGPUCache(4 * stragglerSize),
			score.WithHostCache(4 * stragglerSize),
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
		for v := int64(0); v < stragglerVersions; v++ {
			if err := cl.CheckpointVirtual(v, stragglerSize); err != nil {
				return fmt.Errorf("checkpoint %d: %w", v, err)
			}
			cl.Compute(stragglerInterval)
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
		durs := make([]time.Duration, 0, stragglerVersions)
		for v := int64(stragglerVersions) - 1; v >= 0; v-- {
			t0 := sim.Clock().Now()
			if _, err := cl.Restart(v); err != nil {
				return fmt.Errorf("restart %d: %w", v, err)
			}
			durs = append(durs, sim.Clock().Now()-t0)
			cell.Restores++
			cell.RestoredBytes += stragglerSize
			cl.Compute(stragglerInterval)
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
