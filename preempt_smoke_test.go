package score_test

import (
	"flag"
	"testing"
	"time"

	"score/internal/experiments"
	"score/internal/report"
)

// preemptOut, when set, makes the smoke test write its drain-throughput
// measurements as a bench-record JSON file (make bench-smoke passes
// BENCH_preempt.json). Distinct from bench.out: both live in this
// package, and duplicate flag names panic at init.
var preemptOut = flag.String("preempt.out", "", "write preemption drain bench records to this JSON file")

// TestPreemptDrainSmoke is the `make bench-smoke` drain gate: a small
// deadline sweep whose hit-rate ladder must be sane — wider grace
// windows never drain worse than narrower ones, the widest window
// always lands everything, and every manifest is complete. The bench
// records track drain throughput (bytes the triage made durable per
// simulated drain second) per grace window.
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

	if *preemptOut != "" {
		var records []report.BenchRecord
		for _, cell := range res.Cells {
			rec := report.BenchRecord{
				Name:       "preempt/grace-" + cell.Window.String(),
				BytesMoved: cell.DrainedBytes,
				// OverlapRatio carries the deadline-hit rate: same 0..1
				// shape, tracked per window across commits.
				OverlapRatio: cell.HitRate(),
			}
			if cell.Runs > 0 {
				rec.NsPerOp = float64(cell.DrainTime.Nanoseconds()) / float64(cell.Runs)
			}
			records = append(records, rec)
		}
		if err := report.BenchFile.WriteFile(*preemptOut, records); err != nil {
			t.Fatalf("writing %s: %v", *preemptOut, err)
		}
		t.Logf("wrote %d bench records to %s", len(records), *preemptOut)
	}
}
