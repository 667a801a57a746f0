package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"score/internal/metrics"
)

func sampleCritPathRuns() []CritPathRun {
	return []CritPathRun{
		{
			Label: "pipeline/mono",
			Records: []metrics.CritPathRecord{
				{
					Op: metrics.CritDurable, Version: 1, Start: 10 * time.Millisecond,
					Total: 3 * time.Millisecond,
					Components: map[string]time.Duration{
						metrics.CompXferPCIe: time.Millisecond,
						metrics.CompXferSSD:  2 * time.Millisecond,
					},
				},
				{
					Op: metrics.CritDurable, Version: 0, Start: 0,
					Total: 4 * time.Millisecond,
					Components: map[string]time.Duration{
						metrics.CompGPUAdmit: time.Millisecond,
						metrics.CompXferPCIe: time.Millisecond,
						metrics.CompXferSSD:  2 * time.Millisecond,
					},
				},
				{
					Op: metrics.CritRestore, Version: 0, Start: 20 * time.Millisecond,
					Total: time.Millisecond,
					Components: map[string]time.Duration{
						metrics.CompXferPCIe: time.Millisecond,
					},
				},
			},
		},
	}
}

// TestCritPathRoundTrip: records come back field for field in the order
// they were written (the file does not re-sort what metrics.Merge
// ordered), and every component breakdown still telescopes.
func TestCritPathRoundTrip(t *testing.T) {
	runs := sampleCritPathRuns()
	got, data := writeLoad(t, CritPathFile, runs)
	if !strings.Contains(string(data), `"schema": "score-critpath/v1"`) {
		t.Fatalf("schema tag missing from output:\n%s", data)
	}
	if !reflect.DeepEqual(got, runs) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, runs)
	}
	for _, rec := range got[0].Records {
		var sum time.Duration
		for _, d := range rec.Components {
			sum += d
		}
		if sum+rec.Unattributed != rec.Total {
			t.Errorf("%s v%d: components %v + unattributed %v != total %v",
				rec.Op, rec.Version, sum, rec.Unattributed, rec.Total)
		}
	}
}

// TestCritPathFileDiskRoundTrip: for records in metrics.Merge's (op,
// version, start, total) order, as ckptbench hands them over, the file
// is byte for byte what the format's own writer produced before the
// shared codec, runs sorted by label.
func TestCritPathFileDiskRoundTrip(t *testing.T) {
	recs := sampleCritPathRuns()[0].Records
	merged := []metrics.CritPathRecord{recs[1], recs[0], recs[2]}
	runs := []CritPathRun{
		{Label: "pipeline/mono", Records: merged},
		{Label: "pipeline/chunked", Records: merged[2:]},
	}
	got, data := writeLoad(t, CritPathFile, runs)
	if want := envelopeBytes(t, "score-critpath/v1", "runs", []CritPathRun{runs[1], runs[0]}); !bytes.Equal(data, want) {
		t.Errorf("critpath file bytes:\ngot  %s\nwant %s", data, want)
	}
	if len(got) != 2 || got[0].Label != "pipeline/chunked" || len(got[1].Records) != 3 {
		t.Fatalf("disk round-trip = %+v", got)
	}
}

// TestLoadCritPathsRejectsWrongSchema: an SLO file also keeps its items
// under "runs" and is refused as a critpath file by its tag, as are a
// foreign tag and non-JSON.
func TestLoadCritPathsRejectsWrongSchema(t *testing.T) {
	_, sloData := writeLoad(t, SLOFile, sampleSLORuns())
	if err := loadBytes(t, CritPathFile, sloData); err == nil {
		t.Error("SLO file accepted as a critpath file")
	}
	if err := loadBytes(t, CritPathFile, []byte(`{"schema":"bogus/v0","runs":[]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if err := loadBytes(t, CritPathFile, []byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestCritPathTable(t *testing.T) {
	tab := CritPathTable(sampleCritPathRuns())
	out := tab.String()
	for _, want := range []string{
		"pipeline/mono", "durable", "restore",
		metrics.CompXferSSD, metrics.CompXferPCIe, metrics.CompGPUAdmit,
		"57.1%", // xfer-ssd: 4ms of the 7ms durable total
	} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown table missing %q:\n%s", want, out)
		}
	}
	// Unattributed residue must surface, not vanish, when present.
	runs := sampleCritPathRuns()
	runs[0].Records[0].Unattributed = time.Millisecond
	runs[0].Records[0].Total += time.Millisecond
	if out := CritPathTable(runs).String(); !strings.Contains(out, metrics.CompUnattributed) {
		t.Errorf("unattributed residue missing from table:\n%s", out)
	}
}
