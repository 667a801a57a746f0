package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"score/internal/metrics"
)

func sampleRegistry() *metrics.Registry {
	rec := metrics.NewRecorder()
	rec.Checkpoint(8192, 3*time.Millisecond)
	rec.CheckpointAccepted(8192)
	rec.ConserveDurable(8192)
	rec.Restore(0, 8192, time.Millisecond, 2)
	rec.Retry("nvme")
	rec.RetryBout(true)
	rec.CritPath(metrics.CritPathRecord{
		Op: metrics.CritDurable, Version: 0, Total: 3 * time.Millisecond,
		Components: map[string]time.Duration{
			metrics.CompCopyD2D: time.Millisecond,
			metrics.CompXferSSD: 2 * time.Millisecond,
		},
	})
	rec.CritPath(metrics.CritPathRecord{
		Op: metrics.CritRestore, Version: 0, Total: time.Millisecond,
		Components: map[string]time.Duration{
			metrics.CompXferPCIe: time.Millisecond,
		},
	})
	reg := metrics.NewRegistry()
	reg.Record("fig6a (drained-restore)", rec.Snapshot())
	reg.RecordSeries("fig6a (drained-restore)", map[string][]metrics.Sample{
		"rank0.cache.gpu.used_bytes": {
			{At: time.Millisecond, Value: 4096},
			{At: 2 * time.Millisecond, Value: 8192},
		},
	})
	return reg
}

// roundTrip checks that s writes in to a file in its order (want) and
// reads exactly that back, and that it rejects a file with another tag,
// one with no tag and one that is not JSON.
func roundTrip[T any](s Schema[T], in, want []T) func(*testing.T) {
	return func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "file.json")
		if err := s.WriteFile(path, in); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip:\ngot  %+v\nwant %+v", got, want)
		}
		for _, bad := range []string{
			`{"schema":"score-bogus/v1","` + s.Key + `":[]}`,
			`{"` + s.Key + `":[]}`,
			`not json`,
		} {
			if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.LoadFile(path); err == nil {
				t.Errorf("%s accepted %s", s.Tag, bad)
			}
		}
	}
}

// TestSchemaRoundTrip: every score-*/v1 format round-trips through the
// one codec in its declared order and rejects foreign files.
func TestSchemaRoundTrip(t *testing.T) {
	crit := sampleCritPathRuns()
	crit = append(crit, CritPathRun{Label: "pipeline/chunked", Records: crit[0].Records[:1]})
	sloRuns := sampleSLORuns() // sev-20 before sev-1: written the other way round
	speed := []SimSpeedRecord{
		{Name: "sweep/10k-serial", EventsPerSec: 2.5e6, WakeupsPerSec: 4e6, AllocsPerOp: 1200, WallNsPerOp: 8e8},
		{Name: "sweep/10k-coupled", EventsPerSec: 1.5e6, AllocsPerOp: 900},
	}
	runs := sampleRegistry().Runs()
	t.Run("critpath", roundTrip(CritPathFile, crit, []CritPathRun{crit[1], crit[0]}))
	t.Run("slo", roundTrip(SLOFile, sloRuns, []SLORun{sloRuns[1], sloRuns[0]}))
	t.Run("simspeed", roundTrip(SimSpeedFile, speed, []SimSpeedRecord{speed[1], speed[0]}))
	t.Run("metrics", roundTrip(MetricsFile, runs, runs))
}

// writeLoad writes items in format s to a fresh file and loads them
// back, returning the file's bytes as well.
func writeLoad[T any](t *testing.T, s Schema[T], items []T) ([]T, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.json")
	if err := s.WriteFile(path, items); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got, data
}

// loadBytes loads data as a file of format s.
func loadBytes[T any](t *testing.T, s Schema[T], data []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := s.LoadFile(path)
	return err
}

// envelopeBytes is the encoding each format's own writer used before
// the formats shared one codec: json.MarshalIndent of a {schema, key}
// object with a two-space indent, then a newline.
func envelopeBytes(t *testing.T, tag, key string, items any) []byte {
	t.Helper()
	var env any = struct {
		Schema string `json:"schema"`
		Runs   any    `json:"runs"`
	}{tag, items}
	if key == "records" {
		env = struct {
			Schema  string `json:"schema"`
			Records any    `json:"records"`
		}{tag, items}
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestMetricsExportRoundTrip: a metrics.json export loads back with its
// label, summary, histograms and series intact, and the loaded summary
// still satisfies the recorder's invariants.
func TestMetricsExportRoundTrip(t *testing.T) {
	runs, _ := writeLoad(t, MetricsFile, sampleRegistry().Runs())
	if len(runs) != 1 {
		t.Fatalf("round-trip kept %d runs, want 1", len(runs))
	}
	run := runs[0]
	if run.Label != "fig6a (drained-restore)" {
		t.Errorf("label = %q", run.Label)
	}
	s := run.Summary
	if s.CheckpointBytes != 8192 || s.RestoreBytes != 8192 || s.TotalRetries() != 1 {
		t.Errorf("summary did not round-trip: %+v", s)
	}
	if h, ok := s.Histograms[metrics.HistCheckpoint]; !ok || h.Count != 1 || h.P99() == 0 {
		t.Errorf("checkpoint histogram did not round-trip: %+v", h)
	}
	if err := metrics.CheckInvariantsQuiescent(s); err != nil {
		t.Errorf("round-tripped summary fails invariants: %v", err)
	}
	pts := run.Series["rank0.cache.gpu.used_bytes"]
	if len(pts) != 2 || pts[1].Value != 8192 {
		t.Errorf("series did not round-trip: %+v", pts)
	}
}

// TestLoadMetricsExportRejectsWrongSchema: only the tag tells a metrics
// export from a critical-path file, since both keep their runs under
// "runs"; a critpath file, a foreign tag and non-JSON are all refused.
func TestLoadMetricsExportRejectsWrongSchema(t *testing.T) {
	_, crit := writeLoad(t, CritPathFile, sampleCritPathRuns())
	if err := loadBytes(t, MetricsFile, crit); err == nil {
		t.Error("critpath file accepted as a metrics export")
	}
	if err := loadBytes(t, MetricsFile, []byte(`{"schema":"bogus/v0","runs":[]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if err := loadBytes(t, MetricsFile, []byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestSimSpeedFileDiskRoundTrip: simulator-speed files on disk are byte
// for byte what the simspeed writer produced before the shared codec, so
// the committed baseline does not churn.
func TestSimSpeedFileDiskRoundTrip(t *testing.T) {
	speed := []SimSpeedRecord{
		{Name: "sweep/10k-serial", EventsPerSec: 2.5e6, WakeupsPerSec: 4e6, AllocsPerOp: 1200},
		{Name: "sweep/10k-coupled", EventsPerSec: 1.5e6, AllocsPerOp: 900, WallNsPerOp: 8e8},
	}
	_, data := writeLoad(t, SimSpeedFile, speed)
	if want := envelopeBytes(t, "score-simspeed/v1", "records", []SimSpeedRecord{speed[1], speed[0]}); !bytes.Equal(data, want) {
		t.Errorf("simspeed file bytes:\ngot  %s\nwant %s", data, want)
	}
}

// TestLoadSimSpeedRejectsWrongSchema: the simulator-speed gate trusts the
// committed baseline it loads, so a file of another format, a foreign tag
// under the same "records" key, and a right tag without the records array
// are all refused.
func TestLoadSimSpeedRejectsWrongSchema(t *testing.T) {
	_, crit := writeLoad(t, CritPathFile, sampleCritPathRuns())
	if err := loadBytes(t, SimSpeedFile, crit); err == nil {
		t.Error("critpath file accepted as a simspeed file")
	}
	if err := loadBytes(t, SimSpeedFile, []byte(`{"schema":"score-bench/v1","records":[]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if err := loadBytes(t, SimSpeedFile, []byte(`{"schema":"score-simspeed/v1"}`)); err == nil {
		t.Error("simspeed file without records accepted")
	}
}

// TestMetricsFileMatchesRegistry: a metrics.json export is the envelope
// encoding/json writes for the registry's runs (envelopeBytes), so files
// written before the shared codec still diff clean.
func TestMetricsFileMatchesRegistry(t *testing.T) {
	runs := sampleRegistry().Runs()
	_, data := writeLoad(t, MetricsFile, runs)
	if want := envelopeBytes(t, "score-metrics/v1", "runs", runs); !bytes.Equal(data, want) {
		t.Errorf("metrics file bytes:\ngot  %s\nwant %s", data, want)
	}
}
