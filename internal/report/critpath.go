package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"score/internal/metrics"
)

// This file defines the critical-path attribution artifact: the
// versioned JSON envelope ckptbench writes (-critpath-out) holding,
// per run, every CritPathRecord the instrumentation emitted, plus the
// human-readable breakdown table rendered from it. The analyzer's
// contract — components + unattributed telescope to each record's
// total — is what makes the aggregated table trustworthy: a non-zero
// "unattributed" row means the instrumentation missed a blocking
// point, not that the table rounded something away.

// CritPathRun is one run's worth of attribution records.
type CritPathRun struct {
	// Label names the run (same labels as the metrics export).
	Label string `json:"label"`
	// Records are the per-operation latency decompositions.
	Records []metrics.CritPathRecord `json:"records"`
}

// CritPathFile is the score-critpath/v1 format ckptbench -critpath-out
// writes. Runs are written in label order; records keep the (op,
// version, start, total) order metrics.Merge gives them.
var CritPathFile = Schema[CritPathRun]{Tag: "score-critpath/v1", Key: "runs",
	Order: func(a, b CritPathRun) int { return strings.Compare(a.Label, b.Label) }}

// CritPathTable renders the per-component breakdown of the runs' two
// operation kinds: for each (run, op), one row per component with its
// summed time and share of the op's total latency. The residual the
// analyzer could not explain appears as the "unattributed" component;
// on a healthy run it is absent (the conservation invariant asserts it
// is zero per record).
func CritPathTable(runs []CritPathRun) *Table {
	tab := NewTable("Critical-path attribution — per-component breakdown",
		"run", "op", "ops", "mean latency", "component", "time", "share")
	for _, run := range runs {
		s := metrics.Summary{CritPaths: run.Records}
		for _, op := range []string{metrics.CritDurable, metrics.CritRestore} {
			count, total, comps := s.CritPathBreakdown(op)
			if count == 0 {
				continue
			}
			names := make([]string, 0, len(comps))
			for c := range comps {
				names = append(names, c)
			}
			// Largest component first; ties break alphabetically so the
			// table is deterministic.
			sort.Slice(names, func(i, j int) bool {
				if comps[names[i]] != comps[names[j]] {
					return comps[names[i]] > comps[names[j]]
				}
				return names[i] < names[j]
			})
			mean := time.Duration(0)
			if count > 0 {
				mean = total / time.Duration(count)
			}
			first := true
			for _, c := range names {
				runCol, opCol, opsCol, meanCol := "", "", "", ""
				if first {
					runCol, opCol = run.Label, op
					opsCol = fmt.Sprintf("%d", count)
					meanCol = mean.Round(time.Microsecond).String()
					first = false
				}
				share := 0.0
				if total > 0 {
					share = float64(comps[c]) / float64(total) * 100
				}
				tab.AddRow(runCol, opCol, opsCol, meanCol, c,
					comps[c].Round(time.Microsecond).String(),
					fmt.Sprintf("%5.1f%%", share))
			}
		}
	}
	return tab
}
