package report

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"score/internal/slo"
)

// This file defines the SLO compliance artifact: the versioned JSON
// envelope ckptbench writes (-slo-out) holding, per run, the engine's
// end-of-run report — objective compliance, budget remaining, and the
// alert fire/resolve history — plus the human-readable compliance table
// rendered from it.

// SLORun is one run's (scenario's) SLO report.
type SLORun struct {
	// Label names the run (same labels as the metrics export).
	Label string `json:"label"`
	// Report is the engine's end-of-run output.
	Report slo.Report `json:"report"`
}

// SLOFile is the score-slo/v1 format ckptbench -slo-out writes, in label
// order (objectives and alerts already carry the engine's deterministic
// evaluation order).
var SLOFile = Schema[SLORun]{Tag: "score-slo/v1", Key: "runs", Order: bySLOLabel}

func bySLOLabel(a, b SLORun) int { return strings.Compare(a.Label, b.Label) }

// SLOTable renders the per-run compliance table: one row per objective
// with its class, goal, compliance, budget remaining, peak burn, alert
// tally, and the dominant attribution behind its bad events.
func SLOTable(runs []SLORun) *Table {
	tab := NewTable("SLO compliance — objectives, burn, and attribution",
		"run", "objective", "class", "kind", "goal", "events", "compliance", "budget left", "peak burn", "alerts", "status", "driven by")
	sorted := slices.Clone(runs)
	slices.SortStableFunc(sorted, bySLOLabel)
	for _, run := range sorted {
		first := true
		for _, o := range run.Report.Objectives {
			runCol := ""
			if first {
				runCol = run.Label
				first = false
			}
			goal := fmt.Sprintf("%.3g", o.Goal)
			if o.Threshold > 0 {
				goal += " ≤ " + o.Threshold.Round(time.Microsecond).String()
			}
			status := "ok"
			switch {
			case o.Firing:
				status = "FIRING"
			case o.Fired > 0:
				status = "fired"
			case !o.Met():
				status = "MISSED"
			}
			tab.AddRow(runCol, o.Name, o.Class, o.Kind.String(), goal,
				fmt.Sprintf("%d", o.Events),
				fmt.Sprintf("%.3f", o.Compliance),
				fmt.Sprintf("%+.2f", o.BudgetRemaining),
				fmt.Sprintf("%.1f", o.PeakBurn),
				fmt.Sprintf("%d/%d", o.Fired, o.Resolved),
				status, o.Attribution)
		}
	}
	return tab
}
