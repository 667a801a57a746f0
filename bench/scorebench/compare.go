package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// worse is how much b is worse than a, as a share of a; negative means
// b is better. better is the metric's direction, "lower" or "higher".
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// compareRow is one workload × end-to-end metric of a comparison.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   [3]float64 // Q1, median, Q3
	Worse, Bound           float64
	Verdict                string
}

const (
	verdictWithin     = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// compareRuns sets run b against parent run a. A pairing whose parent
// runs spread wider than the bound is unresolved, never "unchanged":
// the benchmark cannot tell a move of that size from its own noise.
func compareRuns(s spec, a, b runFile) []compareRow {
	var rows []compareRow
	for _, wa := range a.Workloads {
		wb, ok := b.workload(wa.Name)
		if !ok {
			continue
		}
		for _, m := range s.EndToEnd {
			sa, sb := wa.samples(m.Name), wb.samples(m.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			row := compareRow{Workload: wa.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
			row.A[0], row.A[1], row.A[2] = quartiles(sa)
			row.B[0], row.B[1], row.B[2] = quartiles(sb)
			row.Worse = worse(row.A[1], row.B[1], m.Better)
			switch {
			case spread(sa) > m.Bound:
				row.Verdict = verdictUnresolved
			case row.Worse > m.Bound:
				row.Verdict = verdictRegressed
			case row.Worse < -m.Bound:
				row.Verdict = verdictImproved
			default:
				row.Verdict = verdictWithin
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func printCompare(w io.Writer, rows []compareRow) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA Q1..Q3\tB median\tB Q1..Q3\tworse by\tbound\tverdict\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g..%.5g\t%.5g\t%.5g..%.5g\t%+.2f%%\t%.0f%%\t%s\t\n",
			r.Workload, r.Metric, r.Unit, r.A[1], r.A[0], r.A[2], r.B[1], r.B[0], r.B[2],
			100*r.Worse, 100*r.Bound, r.Verdict)
	}
	return tw.Flush()
}
