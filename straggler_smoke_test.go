package score_test

import (
	"flag"
	"testing"
	"time"

	"score/internal/experiments"
	"score/internal/report"
)

// stragglerOut, when set, makes the smoke test write its restore-tail
// measurements as a bench-record JSON file (make bench-smoke passes
// BENCH_straggler.json). Distinct from bench.out: both live in this
// package, and duplicate flag names panic at init.
var stragglerOut = flag.String("straggler.out", "", "write straggler restore-tail bench records to this JSON file")

// TestStragglerSmoke is the `make bench-smoke` gray-failure gate: a
// small severity sweep whose acceptance bound — at 20× slowdown on the
// SSD path, hedged P99 restore blocking at most 0.5× the unhedged P99 —
// must hold, and whose healthy control must show hedging is free. The
// bench records track the P99 per cell so regressions in the adaptive
// deadline or the hedge race surface as tail growth across commits.
func TestStragglerSmoke(t *testing.T) {
	cfg := experiments.StragglerConfig{
		Checkpoints: 12,
		Size:        32 << 20,
		Interval:    2 * time.Millisecond,
		Severities:  []float64{1, 5, 20},
	}
	res, err := experiments.Straggler(experiments.Run{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*len(cfg.Severities) {
		t.Fatalf("sweep returned %d cells for %d severities", len(res.Cells), len(cfg.Severities))
	}
	for _, c := range res.Cells {
		t.Logf("%-16s p50 %-12v p99 %-12v max %-12v hedges %d wins %d wasted %d MB stalls %d/%d quarantines %d",
			c.Label(), c.P50, c.P99, c.Max, c.HedgesLaunched, c.HedgeWins,
			c.HedgeWastedBytes>>20, c.StallsDetected, c.StallsRerouted, c.HealthQuarantines)
	}

	// Healthy control: hedging enabled but never needed must not move the
	// tail at all — the deadline machinery is pure observation until a
	// transfer actually runs late.
	unHealthy, ok1 := res.Cell(1, false)
	heHealthy, ok2 := res.Cell(1, true)
	if !ok1 || !ok2 {
		t.Fatal("healthy control cells missing")
	}
	if unHealthy.P99 != heHealthy.P99 {
		t.Errorf("healthy control: hedged p99 %v != unhedged p99 %v", heHealthy.P99, unHealthy.P99)
	}

	// The acceptance gate: at 20× slowdown, hedged P99 ≤ 0.5× unhedged.
	un, ok1 := res.Cell(20, false)
	he, ok2 := res.Cell(20, true)
	if !ok1 || !ok2 {
		t.Fatal("severity-20 cells missing")
	}
	if un.P99 <= unHealthy.P99 {
		t.Errorf("severity-20 unhedged p99 %v not above healthy p99 %v — the straggler never engaged",
			un.P99, unHealthy.P99)
	}
	if he.P99 > un.P99/2 {
		t.Errorf("severity-20 hedged p99 %v > 0.5 × unhedged p99 %v — the hedge gate failed", he.P99, un.P99)
	}

	if *stragglerOut != "" {
		var records []report.BenchRecord
		for _, c := range res.Cells {
			records = append(records, report.BenchRecord{
				Name:       "straggler/" + c.Label(),
				NsPerOp:    float64(c.P99.Nanoseconds()),
				BytesMoved: c.RestoredBytes,
				// OverlapRatio carries the hedge win rate: same 0..1 shape,
				// tracked per cell across commits.
				OverlapRatio: winRate(c),
			})
		}
		if err := report.BenchFile.WriteFile(*stragglerOut, records); err != nil {
			t.Fatalf("writing %s: %v", *stragglerOut, err)
		}
		t.Logf("wrote %d bench records to %s", len(records), *stragglerOut)
	}
}

func winRate(c experiments.StragglerCell) float64 {
	if c.HedgesLaunched == 0 {
		return 0
	}
	return float64(c.HedgeWins) / float64(c.HedgesLaunched)
}
