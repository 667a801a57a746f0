package experiments

import (
	"reflect"
	"testing"

	"score"
)

// TestPreemptionManifestContract is the acceptance check: every run ends
// with a complete manifest — each live version either durable, discarded,
// or explicitly abandoned, with abandonments carrying a reason.
func TestPreemptionManifestContract(t *testing.T) {
	res, err := Preemption(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	if res.SampleManifest.Entries == nil {
		t.Fatal("no sample manifest retained")
	}
	if !res.SampleManifest.Complete() {
		t.Fatalf("sample manifest incomplete: %s", res.SampleManifest)
	}
	for _, cell := range res.Cells {
		if cell.Runs != 3 {
			t.Errorf("window %v ran %d times, want 3", cell.Window, cell.Runs)
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
	res, err := Preemption(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	tight, wide := res.Cells[0], res.Cells[len(res.Cells)-1]
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

// TestPreemptionDeterministic: the same Run replays the identical
// sweep, manifest entries included.
func TestPreemptionDeterministic(t *testing.T) {
	a, err := Preemption(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Preemption(Run{Scale: Full()})
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
	res, err := Preemption(Run{Scale: Full()})
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
