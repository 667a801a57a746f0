package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

func registryWithRun(t *testing.T) *Registry {
	t.Helper()
	rec := NewRecorder()
	rec.Checkpoint(4096, 2*time.Millisecond)
	rec.CheckpointAccepted(4096)
	rec.ConserveDurable(4096)
	rec.Retry("ssd")
	rec.RetryBout(true)
	reg := NewRegistry()
	reg.Record("fig5a small", rec.Snapshot())
	reg.RecordSeries("fig5a small", map[string][]Sample{
		"link.pcie0.inflight": {{At: time.Millisecond, Value: 1}, {At: 2 * time.Millisecond, Value: 3}},
	})
	return reg
}

func TestRegistryRecordMerges(t *testing.T) {
	reg := registryWithRun(t)
	rec := NewRecorder()
	rec.Checkpoint(1000, time.Millisecond)
	reg.Record("fig5a small", rec.Snapshot())
	if reg.Len() != 1 {
		t.Fatalf("Len = %d, want repeated labels to merge into one run", reg.Len())
	}
	if got := reg.Runs()[0].Summary.CheckpointBytes; got != 5096 {
		t.Errorf("merged CheckpointBytes = %d, want 5096", got)
	}
	reg.RecordSeries("fig5a small", map[string][]Sample{
		"link.pcie0.inflight": {{At: 3 * time.Millisecond, Value: 0}},
	})
	if got := len(reg.Runs()[0].Series["link.pcie0.inflight"]); got != 3 {
		t.Errorf("series length after append = %d, want 3", got)
	}
}

// TestRegistryJSONExport: the runs a metrics.json export carries survive a
// JSON round trip with their label, summary, histograms and series, and
// Runs is a snapshot later records do not reach.
func TestRegistryJSONExport(t *testing.T) {
	reg := registryWithRun(t)
	runs := reg.Runs()
	data, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	var got []Export
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(got) != 1 || got[0].Label != "fig5a small" {
		t.Fatalf("runs = %+v, want one labeled run", got)
	}
	s := got[0].Summary
	if s.CheckpointBytes != 4096 || s.TotalRetries() != 1 {
		t.Errorf("summary did not round-trip: bytes %d retries %d", s.CheckpointBytes, s.TotalRetries())
	}
	h, ok := s.Histograms[HistCheckpoint]
	if !ok || h.Count != 1 {
		t.Errorf("checkpoint histogram did not round-trip: %+v", h)
	}
	if pts := got[0].Series["link.pcie0.inflight"]; len(pts) != 2 || pts[1].Value != 3 {
		t.Errorf("series did not round-trip: %+v", pts)
	}

	rec := NewRecorder()
	rec.Checkpoint(1000, time.Millisecond)
	reg.Record("fig5a small", rec.Snapshot())
	reg.Record("fig6b small", rec.Snapshot())
	if len(runs) != 1 || runs[0].Summary.CheckpointBytes != 4096 {
		t.Errorf("later records reached the snapshot: %+v", runs)
	}
}
