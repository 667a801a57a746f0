package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"score/internal/slo"
)

func sampleSLORuns() []SLORun {
	obj := slo.Objective{
		Name: "restore-p99", Class: "restore-critical", Kind: slo.KindRestoreLatency,
		Goal: 0.99, Threshold: 15 * time.Millisecond,
		Windows: []slo.Window{{Long: 50 * time.Millisecond, Short: 10 * time.Millisecond, Rate: 4}},
	}
	return []SLORun{
		{
			Label: "straggler/sev-20-unhedged",
			Report: slo.Report{
				Objectives: []slo.ObjectiveResult{{
					Objective: obj, Events: 16, Good: 2,
					Compliance: 0.125, BudgetRemaining: -86.5, PeakBurn: 93.8,
					Fired: 1, Firing: true, Attribution: "xfer-ssd",
				}},
				Alerts: []slo.Alert{{
					Objective: "restore-p99", Class: "restore-critical", Kind: slo.KindRestoreLatency,
					Event: slo.EventFire, At: 173 * time.Millisecond, Window: obj.Windows[0],
					Burn: 93.8, BudgetRemaining: -5.2, Attribution: "xfer-ssd",
				}},
				Warnings: []string{"slo conservation (degraded, 3 ledger events dropped): example"},
			},
		},
		{
			Label: "straggler/sev-1-unhedged",
			Report: slo.Report{
				Objectives: []slo.ObjectiveResult{{
					Objective: obj, Events: 16, Good: 16, Compliance: 1, BudgetRemaining: 1,
				}},
			},
		},
	}
}

// TestSLORoundTrip: score-slo/v1 survives write → load byte-for-byte in
// structure, with runs sorted by label on write and the file in the
// encoding ckptbench has always written.
func TestSLORoundTrip(t *testing.T) {
	runs := sampleSLORuns()
	back, data := writeLoad(t, SLOFile, runs)
	if len(back) != 2 {
		t.Fatalf("loaded %d runs, want 2", len(back))
	}
	// Write sorts by label: sev-1 lands first.
	if back[0].Label != "straggler/sev-1-unhedged" || back[1].Label != "straggler/sev-20-unhedged" {
		t.Fatalf("labels out of order: %q, %q", back[0].Label, back[1].Label)
	}
	if !reflect.DeepEqual(back[1].Report, runs[0].Report) {
		t.Errorf("sev-20 report did not round-trip:\ngot  %+v\nwant %+v", back[1].Report, runs[0].Report)
	}
	if !reflect.DeepEqual(back[0].Report, runs[1].Report) {
		t.Errorf("sev-1 report did not round-trip:\ngot  %+v\nwant %+v", back[0].Report, runs[1].Report)
	}
	if want := envelopeBytes(t, "score-slo/v1", "runs", []SLORun{runs[1], runs[0]}); !bytes.Equal(data, want) {
		t.Errorf("SLO file bytes:\ngot  %s\nwant %s", data, want)
	}
}

// TestSLOSchemaValidation: an older version of the tag, a missing tag,
// non-JSON and a metrics export (whose runs share the "runs" key) are
// all rejected.
func TestSLOSchemaValidation(t *testing.T) {
	if err := loadBytes(t, SLOFile, []byte(`{"schema":"score-slo/v0","runs":[]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if err := loadBytes(t, SLOFile, []byte(`{"runs":[]}`)); err == nil {
		t.Error("missing schema accepted")
	}
	if err := loadBytes(t, SLOFile, []byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	_, export := writeLoad(t, MetricsFile, sampleRegistry().Runs())
	if err := loadBytes(t, SLOFile, export); err == nil {
		t.Error("metrics export accepted as an SLO file")
	}
}

// TestSLOTable: the compliance table carries the status and attribution
// columns the alert demo reads.
func TestSLOTable(t *testing.T) {
	var buf bytes.Buffer
	if err := SLOTable(sampleSLORuns()).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"restore-p99", "restore-critical", "FIRING", "xfer-ssd", "restore-latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
