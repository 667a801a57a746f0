package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"score/internal/experiments"
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

// TestEveryScenarioRunsAtSmallScale runs the whole table the way
// `-exp all -scale small` does, except concurrently: every scenario gets
// its own Run value and writer, so nothing is shared between them. A
// scenario's shots reach Run.OnShot exactly when the table says so.
func TestEveryScenarioRunsAtSmallScale(t *testing.T) {
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			var shots atomic.Int64
			run := experiments.Run{Scale: experiments.Small()}
			run.OnShot = func(experiments.ShotResult) { shots.Add(1) }
			if err := sc.run(run, &out); err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Error("scenario printed nothing")
			}
			if got := shots.Load() > 0; got != bool(sc.shots) {
				t.Errorf("%d shots reached Run.OnShot, but the table says observed = %v", shots.Load(), sc.shots)
			}
		})
	}
}

// TestUnobservedScenariosRefuseRecorders: a scenario whose shots never
// reach the Run's observers would write empty metrics, critical-path and
// trace files, so each recording flag with it is a usage error that
// names the experiment and the flag (-sample by the -metrics-out it
// needs).
func TestUnobservedScenariosRefuseRecorders(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	for _, sc := range scenarios {
		if sc.shots {
			continue
		}
		for _, args := range [][]string{
			{"-metrics-out", out}, {"-critpath-out", out}, {"-trace-out", out}, {"-metrics-out", out, "-sample", "1ms"},
		} {
			var errOut bytes.Buffer
			code := cli(append([]string{"-exp", sc.name, "-scale", "small"}, args...), io.Discard, &errOut)
			if code != 2 {
				t.Errorf("-exp %s %v exited %d, want 2", sc.name, args, code)
			}
			if want := `experiment "` + sc.name + `" runs no shot`; !strings.Contains(errOut.String(), want) || !strings.Contains(errOut.String(), args[0]) {
				t.Errorf("-exp %s %v printed\n%s\nwant a line containing %q and %s", sc.name, args, errOut.String(), want, args[0])
			}
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused run left %s behind (stat: %v)", out, err)
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
