package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"score/internal/metrics"
	"score/internal/report"
)

// pipelineScale shrinks the pipeline experiment further than Small()
// so the unit test stays fast while both cases still flush through
// every tier.
func pipelineScale() Run {
	s := Small()
	s.Snapshots = 24
	return Run{Scale: s}
}

func TestPipelineAttributesEveryDurableAndRestore(t *testing.T) {
	res, err := Pipeline(pipelineScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("Pipeline returned %d cases, want 2", len(res.Cases))
	}
	for _, c := range res.Cases {
		sum := c.Merged()
		// Every durable version and every restore carries a complete
		// decomposition (the per-rank invariants already asserted the
		// counts and the zero unattributed gap; re-check the merged view).
		durCount, durTotal, _ := sum.CritPathBreakdown(metrics.CritDurable)
		if durCount != sum.DurableOps {
			t.Errorf("%s: %d durable attributions for %d durable versions", c.Name, durCount, sum.DurableOps)
		}
		restCount, _, _ := sum.CritPathBreakdown(metrics.CritRestore)
		if restCount != sum.RestoreOps {
			t.Errorf("%s: %d restore attributions for %d restores", c.Name, restCount, sum.RestoreOps)
		}
		if durCount == 0 || durTotal == 0 {
			t.Errorf("%s: no durable attribution recorded", c.Name)
		}
		if gap := sum.CritPathUnattributed(); gap != 0 {
			t.Errorf("%s: unattributed latency gap %v", c.Name, gap)
		}
		for _, rec := range sum.CritPaths {
			var compSum time.Duration
			for _, d := range rec.Components {
				compSum += d
			}
			if compSum+rec.Unattributed != rec.Total {
				t.Fatalf("%s: %s v%d components %v != total %v",
					c.Name, rec.Op, rec.Version, compSum, rec.Total)
			}
		}
	}

	// The chunked case folds the PCIe and SSD legs into one overlapped
	// stream; the monolithic case must show them as separate serialized
	// components.
	_, _, monoComps := res.Cases[0].Merged().CritPathBreakdown(metrics.CritDurable)
	if monoComps[metrics.CompXferPCIe] == 0 || monoComps[metrics.CompXferSSD] == 0 {
		t.Errorf("mono case missing serialized transfer components: %v", monoComps)
	}

	// The result renders and its attribution records round-trip through
	// the score-critpath/v1 envelope.
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pipeline/mono", "pipeline/chunked", metrics.CompXferSSD} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered pipeline result missing %q:\n%s", want, out)
		}
	}
	path := filepath.Join(t.TempDir(), "critpath.json")
	if err := report.CritPathFile.WriteFile(path, res.CritPathRuns()); err != nil {
		t.Fatal(err)
	}
	runs, err := report.CritPathFile.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("round-trip kept %d runs, want 2", len(runs))
	}
	for i, run := range runs {
		if len(run.Records) == 0 {
			t.Errorf("run %d (%s) lost its records", i, run.Label)
		}
	}
}
