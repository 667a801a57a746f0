package experiments

import (
	"reflect"
	"testing"
	"time"
)

// smallStraggler is a reduced-scale sweep: 12 × 32 MiB with the healthy
// control and the severe straggler. Small enough for test cost, large
// enough that the deep reads dominate restore blocking and the hedge
// contrast is unambiguous.
func smallStraggler() StragglerConfig {
	return StragglerConfig{
		Checkpoints: 12,
		Size:        32 << 20,
		Interval:    2 * time.Millisecond,
		Severities:  []float64{1, 20},
	}
}

// TestStragglerCellsShape: the sweep runs every (severity, hedging)
// pair, in order, with every restore accounted.
func TestStragglerCellsShape(t *testing.T) {
	cfg := smallStraggler()
	res, err := Straggler(Run{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*len(cfg.Severities) {
		t.Fatalf("cells = %d, want %d", len(res.Cells), 2*len(cfg.Severities))
	}
	for _, c := range res.Cells {
		if c.Restores != cfg.Checkpoints {
			t.Errorf("%s: restored %d/%d", c.Label(), c.Restores, cfg.Checkpoints)
		}
		if c.P99 < c.P50 || c.Max < c.P99 {
			t.Errorf("%s: quantiles disordered: p50=%v p99=%v max=%v", c.Label(), c.P50, c.P99, c.Max)
		}
		if c.P99 <= 0 {
			t.Errorf("%s: p99 = %v, want positive", c.Label(), c.P99)
		}
		if !c.Hedged && (c.HedgesLaunched != 0 || c.StallsDetected != 0 || c.HealthQuarantines != 0) {
			t.Errorf("%s: unhedged cell reports hedge machinery activity: %+v", c.Label(), c)
		}
	}
}

// TestStragglerHealthyControl: with no fault injected, hedging changes
// nothing — the first leg always wins before any deadline could engage,
// so both modes measure identical restore tails.
func TestStragglerHealthyControl(t *testing.T) {
	res, err := Straggler(Run{}, smallStraggler())
	if err != nil {
		t.Fatal(err)
	}
	un, ok1 := res.Cell(1, false)
	he, ok2 := res.Cell(1, true)
	if !ok1 || !ok2 {
		t.Fatal("healthy control cells missing")
	}
	if un.P50 != he.P50 || un.P99 != he.P99 || un.Max != he.Max {
		t.Errorf("healthy hedged tail differs from unhedged: %+v vs %+v", he, un)
	}
	if he.HedgeWins != 0 {
		t.Errorf("healthy run won %d hedges; nothing should have been slow enough", he.HedgeWins)
	}
}

// TestStragglerHedgeBoundsTail is the acceptance gate at unit scale: at
// 20× slowdown on the SSD path, the hedged P99 restore blocking is at
// most half the unhedged P99, and the improvement came from hedge wins
// (or an outright quarantine routing around the straggler).
func TestStragglerHedgeBoundsTail(t *testing.T) {
	res, err := Straggler(Run{}, smallStraggler())
	if err != nil {
		t.Fatal(err)
	}
	un, ok1 := res.Cell(20, false)
	he, ok2 := res.Cell(20, true)
	if !ok1 || !ok2 {
		t.Fatal("severity-20 cells missing")
	}
	if he.P99 > un.P99/2 {
		t.Errorf("hedged p99 %v > 0.5 × unhedged p99 %v", he.P99, un.P99)
	}
	if he.HedgeWins == 0 && he.HealthQuarantines == 0 {
		t.Errorf("hedged tail improved without a hedge win or quarantine: %+v", he)
	}
}

// TestStragglerDeterministic: the same config replays the identical
// sweep, counters and quantiles included.
func TestStragglerDeterministic(t *testing.T) {
	a, err := Straggler(Run{}, smallStraggler())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Straggler(Run{}, smallStraggler())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sweep not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
