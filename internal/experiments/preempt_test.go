package experiments

import (
	"reflect"
	"testing"
	"time"

	"score"
)

// smallPreempt is a reduced-scale sweep: 6 × 4 MiB of backlog against a
// window too small to drain everything and one comfortably large. The
// bandwidth-to-backlog ratio preserves the full sweep's shape (partial
// triage at the short window, full drain at the long one) at test cost.
func smallPreempt() PreemptConfig {
	return PreemptConfig{
		Checkpoints: 6,
		Size:        4 << 20,
		Interval:    time.Millisecond,
		Windows:     []time.Duration{500 * time.Microsecond, 250 * time.Millisecond},
		Runs:        2,
	}
}

// TestPreemptionManifestContract is the acceptance check: every run ends
// with a complete manifest — each live version either durable, discarded,
// or explicitly abandoned, with abandonments carrying a reason.
func TestPreemptionManifestContract(t *testing.T) {
	res, err := Preemption(Run{}, smallPreempt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	if res.SampleManifest.Entries == nil {
		t.Fatal("no sample manifest retained")
	}
	if !res.SampleManifest.Complete() {
		t.Fatalf("sample manifest incomplete: %s", res.SampleManifest)
	}
	for _, cell := range res.Cells {
		if cell.Runs != 2 {
			t.Errorf("window %v ran %d times, want 2", cell.Window, cell.Runs)
		}
		total := cell.DurableBytes + cell.AbandonedBytes + cell.DiscardedBytes
		if total == 0 {
			t.Errorf("window %v: no bytes accounted in manifests", cell.Window)
		}
	}
}

// TestPreemptionWindowLadder: a tight window must abandon state that a
// generous one drains — the deadline budget is real, and fail-open means
// the abandoned bytes are explicit, not stuck.
func TestPreemptionWindowLadder(t *testing.T) {
	res, err := Preemption(Run{}, smallPreempt())
	if err != nil {
		t.Fatal(err)
	}
	tight, wide := res.Cells[0], res.Cells[1]
	if tight.AbandonedBytes == 0 {
		t.Errorf("tight window %v abandoned nothing — the deadline budget never engaged", tight.Window)
	}
	if wide.DurableBytes <= tight.DurableBytes {
		t.Errorf("wide window durable %d <= tight window durable %d",
			wide.DurableBytes, tight.DurableBytes)
	}
	if wide.AbandonedBytes > 0 {
		t.Errorf("wide window %v abandoned %d bytes; want a full drain",
			wide.Window, wide.AbandonedBytes)
	}
	if wide.DeadlineHits != wide.Runs {
		t.Errorf("wide window hit the deadline %d/%d times", wide.DeadlineHits, wide.Runs)
	}
}

// TestPreemptionDeterministic: the same config replays the identical
// sweep, manifest entries included.
func TestPreemptionDeterministic(t *testing.T) {
	a, err := Preemption(Run{}, smallPreempt())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Preemption(Run{}, smallPreempt())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sweep not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestPreemptionThroughputReported: the headline metric (GB drained per
// grace second) is populated for a window that drained anything.
func TestPreemptionThroughputReported(t *testing.T) {
	res, err := Preemption(Run{}, smallPreempt())
	if err != nil {
		t.Fatal(err)
	}
	var drained bool
	for _, cell := range res.Cells {
		if cell.DrainedBytes > 0 {
			drained = true
			if cell.DrainThroughput() <= 0 {
				t.Errorf("window %v drained %d bytes but reports %v GB/s",
					cell.Window, cell.DrainedBytes, cell.DrainThroughput())
			}
		}
	}
	if !drained {
		t.Error("no window drained any bytes; the sweep is miscalibrated")
	}
	var zero score.DrainManifest
	if reflect.DeepEqual(res.SampleManifest, zero) {
		t.Error("sample manifest empty")
	}
}
