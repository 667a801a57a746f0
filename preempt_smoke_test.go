package score_test

import (
	"testing"
	"time"

	"score/internal/experiments"
)

// TestPreemptDrainSmoke is the `make bench-smoke` drain gate: a small
// deadline sweep whose hit-rate ladder must be sane — wider grace
// windows never drain worse than narrower ones, the widest window
// always lands everything, and every manifest is complete.
func TestPreemptDrainSmoke(t *testing.T) {
	cfg := experiments.PreemptConfig{
		Checkpoints: 6,
		Size:        256 << 20,
		Interval:    time.Millisecond,
		Windows:     []time.Duration{125 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second},
		Runs:        2,
	}
	res, err := experiments.Preemption(experiments.Run{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(cfg.Windows) {
		t.Fatalf("sweep returned %d cells for %d windows", len(res.Cells), len(cfg.Windows))
	}
	if !res.SampleManifest.Complete() {
		t.Fatalf("sample manifest incomplete: %s", res.SampleManifest)
	}
	prev := -1.0
	for _, cell := range res.Cells {
		if cell.Runs != cfg.Runs {
			t.Errorf("window %v ran %d/%d runs", cell.Window, cell.Runs, cfg.Runs)
		}
		if cell.DurableBytes == 0 {
			t.Errorf("window %v made nothing durable", cell.Window)
		}
		if hr := cell.HitRate(); hr < prev {
			t.Errorf("hit rate fell from %.2f to %.2f as the window widened to %v", prev, hr, cell.Window)
		} else {
			prev = hr
		}
		t.Logf("grace %-8v hit rate %.2f  drained %.2f GB  abandoned %.2f GB",
			cell.Window, cell.HitRate(), float64(cell.DrainedBytes)/1e9, float64(cell.AbandonedBytes)/1e9)
	}
	widest := res.Cells[len(res.Cells)-1]
	if widest.HitRate() != 1 {
		t.Errorf("widest window %v hit rate %.2f, want 1.0 — the ladder cannot drain %d MB in %v",
			widest.Window, widest.HitRate(), cfg.Size>>20*int64(cfg.Checkpoints), widest.Window)
	}
	if widest.AbandonedBytes != 0 {
		t.Errorf("widest window abandoned %d bytes despite hitting its deadline", widest.AbandonedBytes)
	}
}
