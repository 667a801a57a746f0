package score_test

import (
	"testing"

	"score/internal/experiments"
)

// TestPreemptDrainSmoke is the `make bench-smoke` drain gate: the
// paper-scale deadline sweep ckptbench -exp preempt prints, whose
// hit-rate ladder must be sane — wider grace windows never drain worse
// than narrower ones, the widest window always lands everything, and
// every manifest is complete.
func TestPreemptDrainSmoke(t *testing.T) {
	res, err := experiments.Preemption(experiments.Run{Scale: experiments.Full()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("sweep returned %d cells for 4 windows", len(res.Cells))
	}
	if !res.SampleManifest.Complete() {
		t.Fatalf("sample manifest incomplete: %s", res.SampleManifest)
	}
	prev := -1.0
	for _, cell := range res.Cells {
		if cell.Runs != 3 {
			t.Errorf("window %v ran %d/3 runs", cell.Window, cell.Runs)
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
			widest.Window, widest.HitRate(), res.Backlog>>20, widest.Window)
	}
	if widest.AbandonedBytes != 0 {
		t.Errorf("widest window abandoned %d bytes despite hitting its deadline", widest.AbandonedBytes)
	}
}
