package score_test

import (
	"testing"

	"score/internal/experiments"
)

// TestStragglerSmoke is the `make bench-smoke` gray-failure gate: the
// severity sweep ckptbench -exp straggler prints, whose acceptance
// bound — at 20× slowdown on the SSD path, hedged P99 restore blocking
// at most 0.5× the unhedged P99 — must hold, whose hedging must never
// worsen the tail at any severity, and whose healthy control must show
// hedging is free.
func TestStragglerSmoke(t *testing.T) {
	res, err := experiments.Straggler(experiments.Run{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("sweep returned %d cells for 3 severities", len(res.Cells))
	}
	for _, c := range res.Cells {
		t.Logf("%-16s p50 %-12v p99 %-12v max %-12v hedges %d wins %d wasted %d MB stalls %d/%d quarantines %d",
			c.Label(), c.P50, c.P99, c.Max, c.HedgesLaunched, c.HedgeWins,
			c.HedgeWastedBytes>>20, c.StallsDetected, c.StallsRerouted, c.HealthQuarantines)
	}

	// Hedging never worsens the tail: at every severity, the 5× regime
	// included, the hedged P99 is at most the unhedged one.
	for _, sev := range []float64{1, 5, 20} {
		un, ok1 := res.Cell(sev, false)
		he, ok2 := res.Cell(sev, true)
		if !ok1 || !ok2 {
			t.Fatalf("severity-%g cells missing", sev)
		}
		if he.P99 > un.P99 {
			t.Errorf("severity-%g hedged p99 %v > unhedged p99 %v — hedging worsened the tail", sev, he.P99, un.P99)
		}
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
}
