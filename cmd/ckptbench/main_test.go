package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"score/internal/cachebuf"
	"score/internal/experiments"
	"score/internal/report"
	"score/internal/trace"
)

func TestScenarioNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range scenarioNames() {
		if name == "" || name == "all" || seen[name] {
			t.Errorf("scenario name %q is empty, reserved or duplicated", name)
		}
		seen[name] = true
	}
}

func TestListPrintsTheTableInOrder(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	if got, want := out.String(), strings.Join(scenarioNames(), "\n")+"\n"; got != want {
		t.Errorf("-list printed\n%s\nwant\n%s", got, want)
	}
}

func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var errOut bytes.Buffer
	if code := cli([]string{"-exp", "nope"}, io.Discard, &errOut); code != 2 {
		t.Errorf("-exp nope exited %d, want 2", code)
	}
	want := `unknown experiment "nope" (registered: ` + strings.Join(scenarioNames(), ", ") + ", all)"
	if !strings.Contains(errOut.String(), want) {
		t.Errorf("-exp nope printed\n%s\nwant a line containing\n%s", errOut.String(), want)
	}
}

// shotless names the scenarios that simulate no shot: every other one
// hands its shots to Run.OnShot and Run.OnTrace.
var shotless = map[string]bool{"table1": true, "fig4": true, "evict": true}

// TestEveryScenarioRunsAtSmallScale runs the whole table the way
// `-exp all -scale small` does, except concurrently: every scenario gets
// its own Run value and writer, so nothing is shared between them. Every
// scenario but the shotless ones hands Run.OnShot at least one shot, each
// with a result per rank, and Run.OnTrace as many tracers. Every shot of
// a scenario carries a label of its own, since the metrics registry
// merges runs that share one.
func TestEveryScenarioRunsAtSmallScale(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			labels := map[string]int{}
			var traces int
			run := experiments.Run{Scale: experiments.Small()}
			run.OnTrace = func(string, *trace.Tracer) { traces++ }
			run.OnShot = func(res experiments.ShotResult) {
				labels[res.Label()]++
				if len(res.PerRank) == 0 {
					t.Errorf("shot %q has no rank results", res.Label())
				}
			}
			if err := sc.run(run, &out); err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Error("scenario printed nothing")
			}
			var shots int
			for _, n := range labels {
				shots += n
			}
			if got := shots > 0; got == shotless[sc.name] || traces != shots {
				t.Errorf("%d shots reached Run.OnShot and %d tracers Run.OnTrace; want shots = %v, one tracer each", shots, traces, !shotless[sc.name])
			}
			for label, n := range labels {
				if n > 1 {
					t.Errorf("%d shots share the label %q", n, label)
				}
			}
		})
	}
}

// TestShotlessScenariosRefuseRecorders: a scenario that simulates no shot
// would leave the metrics, critical-path and trace files empty, so each
// recording flag with it fails the run, names the flag and writes no
// file.
func TestShotlessScenariosRefuseRecorders(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	for name := range shotless {
		for _, args := range [][]string{
			{"-metrics-out", out}, {"-critpath-out", out}, {"-trace-out", out}, {"-metrics-out", out, "-sample", "1ms"},
		} {
			var errOut bytes.Buffer
			if code := cli(append([]string{"-exp", name, "-scale", "small"}, args...), io.Discard, &errOut); code == 0 {
				t.Errorf("-exp %s %v exited 0", name, args)
			}
			if want := `experiment "` + name + `" simulated no shot, so ` + args[0]; !strings.Contains(errOut.String(), want) {
				t.Errorf("-exp %s %v printed\n%s\nwant a line containing %q", name, args, errOut.String(), want)
			}
		}
	}
	if files, _ := filepath.Glob(filepath.Join(filepath.Dir(out), "*")); len(files) > 0 {
		t.Errorf("a refused run left %v behind", files)
	}
}

// TestSampleNeedsAConsumer: -sample alone is a usage error, and with only
// -trace-out it is accepted and the traces carry the sampled gauges as
// counter events. The interval is coarse so that the traces stay small.
func TestSampleNeedsAConsumer(t *testing.T) {
	var errOut bytes.Buffer
	if code := cli([]string{"-exp", "pipeline", "-scale", "small", "-sample", "1ms"}, io.Discard, &errOut); code != 2 {
		t.Errorf("-sample without -metrics-out or -trace-out exited %d, want 2", code)
	}
	if want := "-sample records series only with -metrics-out or -trace-out"; !strings.Contains(errOut.String(), want) {
		t.Errorf("-sample alone printed\n%s\nwant a line containing %q", errOut.String(), want)
	}

	base := filepath.Join(t.TempDir(), "trace.json")
	errOut.Reset()
	if code := cli([]string{"-exp", "pipeline", "-scale", "small", "-sample", "1s", "-trace-out", base}, io.Discard, &errOut); code != 0 {
		t.Fatalf("-sample with -trace-out exited %d: %s", code, errOut.String())
	}
	for _, label := range []string{"pipeline/mono", "pipeline/chunked"} {
		data, err := os.ReadFile(tracePath(base, label))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"ph":"C"`)) {
			t.Errorf("%s has no counter events", tracePath(base, label))
		}
	}
}

// TestSuggestedCadenceKeepsEveryCounterSample: sampled every 1ms, the
// small pipeline's traces drop counter samples; re-run at the cadence the
// incomplete-trace warning names, they drop none.
func TestSuggestedCadenceKeepsEveryCounterSample(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small pipeline twice with sampling")
	}
	dropped := func(every time.Duration) map[string]int64 {
		got := map[string]int64{}
		run := experiments.Run{Scale: experiments.Small(), SampleInterval: every}
		run.OnTrace = func(label string, tr *trace.Tracer) { _, got[label] = tr.Dropped() }
		if _, err := experiments.Pipeline(run); err != nil {
			t.Fatal(err)
		}
		return got
	}
	var cadence time.Duration
	for label, n := range dropped(time.Millisecond) {
		if n == 0 {
			t.Fatalf("%s dropped no counter samples at 1ms; the test needs a trace that does", label)
		}
		cadence = max(cadence, keepAllCadence(time.Millisecond, n))
	}
	for label, n := range dropped(cadence) {
		if n != 0 {
			t.Errorf("%s dropped %d counter samples at the suggested -sample %v", label, n, cadence)
		}
	}
}

// TestTracedStragglerReconcilesItsLedger: under -slo with -trace-out, each
// straggler cell reconciles its SLO report against the alert transitions
// in its ledger, and the ledger of the 20× unhedged cell, which breaches,
// holds its fired alert while the healthy control's holds none.
func TestTracedStragglerReconcilesItsLedger(t *testing.T) {
	var errOut bytes.Buffer
	args := []string{"-exp", "straggler", "-scale", "small", "-slo", "-trace-out", filepath.Join(t.TempDir(), "trace.json")}
	if code := cli(args, io.Discard, &errOut); code != 0 {
		t.Fatalf("%v exited %d: %s", args, code, errOut.String())
	}
	fired := map[string]int{}
	run := experiments.Run{Scale: experiments.Small(), SLO: true}
	run.OnTrace = func(label string, tr *trace.Tracer) {
		for _, ev := range tr.Flight().Ledger(experiments.SLOLedgerRank) {
			if ev.Kind == trace.LSLOFired {
				fired[label]++
			}
		}
	}
	if err := runStraggler(run, io.Discard); err != nil {
		t.Fatal(err)
	}
	if fired["straggler/sev-20-unhedged"] == 0 || fired["straggler/sev-1-unhedged"] != 0 {
		t.Errorf("slo-fired ledger events per cell: %v; want some for sev-20-unhedged, none for sev-1-unhedged", fired)
	}
}

// TestEveryShotWritesItsOwnRun: the figure and ablation sweeps label each
// shot by everything they vary (combo, restore mode, order, swept value;
// the ablation variant), so -metrics-out writes one run and -trace-out one
// file per shot instead of merging and overwriting the shots that share a
// label: fig5a's 21 (seven combos × three orders) and the ablations' one
// per variant.
func TestEveryShotWritesItsOwnRun(t *testing.T) {
	for exp, shots := range map[string]int{"fig5a": 21, "ablations": len(cachebuf.Policies()) + 9} {
		t.Run(exp, func(t *testing.T) {
			dir := t.TempDir()
			metricsPath := filepath.Join(dir, "metrics.json")
			var out, errOut bytes.Buffer
			args := []string{"-exp", exp, "-scale", "small", "-metrics-out", metricsPath, "-trace-out", filepath.Join(dir, "trace.json")}
			if code := cli(args, &out, &errOut); code != 0 {
				t.Fatalf("%v exited %d: %s", args, code, errOut.String())
			}
			if got := strings.Count(out.String(), "wrote trace "); got != shots {
				t.Errorf("%d traces written, want one per shot: %d", got, shots)
			}
			runs, err := report.MetricsFile.LoadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != shots {
				t.Errorf("%s holds %d runs for %d shots", metricsPath, len(runs), shots)
			}
			if traces, _ := filepath.Glob(filepath.Join(dir, "trace-*.json")); len(traces) != shots {
				t.Errorf("%d trace files for %d shots", len(traces), shots)
			}
		})
	}
}
