package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"score/internal/experiments"
	"score/internal/metrics"
	"score/internal/report"
	"score/internal/trace"
)

func TestScenarioNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range experimentNames() {
		if name == "" || name == "all" || seen[name] {
			t.Errorf("experiment name %q is empty, reserved or duplicated", name)
		}
		seen[name] = true
	}
}

func TestListPrintsTheTableInOrder(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	if got, want := out.String(), strings.Join(experimentNames(), "\n")+"\n"; got != want {
		t.Errorf("-list printed\n%s\nwant\n%s", got, want)
	}
}

func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var errOut bytes.Buffer
	if code := cli([]string{"-exp", "nope"}, io.Discard, &errOut); code != 2 {
		t.Errorf("-exp nope exited %d, want 2", code)
	}
	want := `unknown experiment "nope" (registered: ` + strings.Join(experimentNames(), ", ") + ", all)"
	if !strings.Contains(errOut.String(), want) {
		t.Errorf("-exp nope printed\n%s\nwant a line containing\n%s", errOut.String(), want)
	}
}

// shotless names the scenarios that simulate no shot: every other one
// hands its shots to Run.OnShot and Run.OnTrace.
var shotless = map[string]bool{"table1": true, "fig4": true, "evict": true}

// TestEveryScenarioRunsAtSmallScale runs the whole experiments table the
// way `-exp all -scale small` does, except concurrently: every experiment
// gets its own Run value and writer, so nothing but the label table below
// is shared between them. Every experiment but the shotless ones hands
// Run.OnShot at least one shot, each with a result per rank, and
// Run.OnTrace as many tracers. Every shot of the table carries a label of
// its own, since the metrics registry merges runs that share one and -out
// names each shot's files by its label.
func TestEveryScenarioRunsAtSmallScale(t *testing.T) {
	var mu sync.Mutex
	owner := map[string]string{} // shot label -> the experiment that used it first
	for _, e := range experiments.Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			var shots, traces int
			run := experiments.Run{Scale: experiments.Small()}
			run.OnTrace = func(string, *trace.Tracer) { traces++ }
			run.OnShot = func(res experiments.ShotResult) {
				shots++
				if len(res.PerRank) == 0 {
					t.Errorf("shot %q has no rank results", res.Label())
				}
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := owner[res.Label()]; ok {
					t.Errorf("shot label %q is used by %s and again by %s", res.Label(), prev, e.Name)
				}
				owner[res.Label()] = e.Name
			}
			res, err := e.Run(run)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Render(&out); err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Error("experiment printed nothing")
			}
			if got := shots > 0; got == shotless[e.Name] || traces != shots {
				t.Errorf("%d shots reached Run.OnShot and %d tracers Run.OnTrace; want shots = %v, one tracer each", shots, traces, !shotless[e.Name])
			}
		})
	}
}

// TestShotlessScenariosRefuseRecorders: a scenario that simulates no shot
// would leave the bundle empty, so -out with it fails the run, names the
// flag and writes no file.
func TestShotlessScenariosRefuseRecorders(t *testing.T) {
	dir := t.TempDir()
	for name := range shotless {
		for _, args := range [][]string{{"-out", dir}, {"-out", dir, "-sample", "1ms"}} {
			var errOut bytes.Buffer
			if code := cli(append([]string{"-exp", name, "-scale", "small"}, args...), io.Discard, &errOut); code == 0 {
				t.Errorf("-exp %s %v exited 0", name, args)
			}
			if want := `experiment "` + name + `" simulated no shot, so -out`; !strings.Contains(errOut.String(), want) {
				t.Errorf("-exp %s %v printed\n%s\nwant a line containing %q", name, args, errOut.String(), want)
			}
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) > 0 {
		t.Errorf("a refused run left %v behind", files)
	}
}

// TestBadOutDirFailsBeforeAnyRun: an -out that is not an existing, empty
// directory is a usage error before any experiment runs.
func TestBadOutDirFailsBeforeAnyRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for dir, want := range map[string]string{
		filepath.Join(file, "..", "missing"): "does not exist",
		file:                                 "does not exist",
		filepath.Dir(file):                   "is not empty",
	} {
		var out, errOut bytes.Buffer
		if code := cli([]string{"-exp", "pipeline", "-scale", "small", "-out", dir}, &out, &errOut); code != 2 {
			t.Errorf("-out %s exited %d, want 2", dir, code)
		}
		if out.Len() > 0 || !strings.Contains(errOut.String(), want) {
			t.Errorf("-out %s printed\n%s\nand to stderr\n%s\nwant nothing and an error containing %q", dir, out.String(), errOut.String(), want)
		}
	}
}

// TestSampleNeedsAConsumer: -sample alone is a usage error, and with -out
// the traces carry the sampled gauges as counter events. The interval is
// coarse so that the traces stay small.
func TestSampleNeedsAConsumer(t *testing.T) {
	var errOut bytes.Buffer
	if code := cli([]string{"-exp", "pipeline", "-scale", "small", "-sample", "1ms"}, io.Discard, &errOut); code != 2 {
		t.Errorf("-sample without -out exited %d, want 2", code)
	}
	if want := "-sample records series only with -out"; !strings.Contains(errOut.String(), want) {
		t.Errorf("-sample alone printed\n%s\nwant a line containing %q", errOut.String(), want)
	}

	dir := t.TempDir()
	errOut.Reset()
	if code := cli([]string{"-exp", "pipeline", "-scale", "small", "-sample", "1s", "-out", dir}, io.Discard, &errOut); code != 0 {
		t.Fatalf("-sample with -out exited %d: %s", code, errOut.String())
	}
	for _, label := range []string{"pipeline/mono", "pipeline/chunked"} {
		path := shotPath(dir, "trace.json", label)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"ph":"C"`)) {
			t.Errorf("%s has no counter events", path)
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
	warnings := func(every time.Duration) string {
		var errOut bytes.Buffer
		args := []string{"-exp", "pipeline", "-scale", "small", "-sample", every.String(), "-out", t.TempDir()}
		if code := cli(args, io.Discard, &errOut); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, errOut.String())
		}
		return errOut.String()
	}
	var cadence time.Duration
	var suggestions int
	for _, line := range strings.Split(warnings(time.Millisecond), "\n") {
		var every string
		if _, err := fmt.Sscanf(line, "ckptbench: warning: -sample %s keeps every counter sample of", &every); err != nil {
			continue
		}
		d, err := time.ParseDuration(every)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		cadence = max(cadence, d)
		suggestions++
	}
	if suggestions != 2 {
		t.Fatalf("%d cadence suggestions at 1ms, want one per trace (2); the test needs traces that drop counter samples", suggestions)
	}
	if got := warnings(cadence); strings.Contains(got, "keeps every counter sample") {
		t.Errorf("at the suggested -sample %v a trace still dropped counter samples:\n%s", cadence, got)
	}
}

// TestTracedStragglerReconcilesItsLedger: under -slo with -out, each
// straggler cell reconciles its SLO report against the alert transitions
// in its ledger, and the ledger file of the 20× unhedged cell, which
// breaches, holds its fired alert while the healthy control's holds none.
func TestTracedStragglerReconcilesItsLedger(t *testing.T) {
	dir := t.TempDir()
	var errOut bytes.Buffer
	args := []string{"-exp", "straggler", "-scale", "small", "-slo", "-out", dir}
	if code := cli(args, io.Discard, &errOut); code != 0 {
		t.Fatalf("%v exited %d: %s", args, code, errOut.String())
	}
	fired := map[string]int{}
	for _, label := range []string{"straggler/sev-20-unhedged", "straggler/sev-1-unhedged"} {
		data, err := os.ReadFile(shotPath(dir, "ledger.txt", label))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			var rank int
			var version int64
			var at, kind string
			if _, err := fmt.Sscanf(line, "%d %d %s %s", &rank, &version, &at, &kind); err == nil &&
				rank == experiments.SLOLedgerRank && kind == trace.LSLOFired.String() {
				fired[label]++
			}
		}
	}
	if fired["straggler/sev-20-unhedged"] == 0 || fired["straggler/sev-1-unhedged"] != 0 {
		t.Errorf("slo-fired ledger events per cell: %v; want some for sev-20-unhedged, none for sev-1-unhedged", fired)
	}
}

// TestLedgerFileHoldsEveryVersionsLifecycle: a shot's ledger file holds
// every event its flight recorder retains, and its lines for one (rank,
// version) pair are that rank's ledger filtered to the version, in order.
func TestLedgerFileHoldsEveryVersionsLifecycle(t *testing.T) {
	dir := t.TempDir()
	var errOut bytes.Buffer
	if code := cli([]string{"-exp", "pipeline", "-scale", "small", "-out", dir}, io.Discard, &errOut); code != 0 {
		t.Fatalf("-exp pipeline -out exited %d: %s", code, errOut.String())
	}
	const label, rank, version = "pipeline/mono", 0, 3
	data, err := os.ReadFile(shotPath(dir, "ledger.txt", label))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")

	var fl *trace.FlightRecorder
	run := experiments.Run{Scale: experiments.Small()}
	run.OnTrace = func(l string, tr *trace.Tracer) {
		if l == label {
			fl = tr.Flight()
		}
	}
	if _, err := experiments.Pipeline(run); err != nil {
		t.Fatal(err)
	}
	var events int
	for _, r := range fl.Ranks() {
		events += len(fl.Ledger(r))
	}
	if len(lines) != events {
		t.Errorf("%d ledger lines for %d retained events", len(lines), events)
	}

	prefix := fmt.Sprintf("%d %d ", rank, version)
	var got, want []string
	for _, line := range lines {
		if strings.HasPrefix(line, prefix) {
			got = append(got, line)
		}
	}
	for _, ev := range fl.Ledger(rank) {
		if ev.Version != version {
			continue
		}
		line := fmt.Sprintf("%d %d %v %s", ev.Rank, ev.Version, ev.At.Round(time.Microsecond), ev.Kind)
		if ev.Tier != "" {
			line += " [" + ev.Tier + "]"
		}
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		want = append(want, line)
	}
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("rank %d version %d: the ledger file holds\n%s\nwant\n%s", rank, version, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestUnattributedGapFailsTheBundle: a critical-path record that leaves
// part of its latency unattributed fails the check the bundle runs.
func TestUnattributedGapFailsTheBundle(t *testing.T) {
	whole := metrics.CritPathRecord{Op: metrics.CritRestore, Total: time.Millisecond,
		Components: map[string]time.Duration{metrics.CompXferSSD: time.Millisecond}}
	gapped := whole
	gapped.Components = map[string]time.Duration{metrics.CompXferSSD: 900 * time.Microsecond}
	gapped.Unattributed = 100 * time.Microsecond

	runs := []report.CritPathRun{{Label: "a", Records: []metrics.CritPathRecord{whole}}, {Label: "b"}}
	if n, err := checkAttribution(runs); n != 1 || err != nil {
		t.Errorf("complete records: %d checked, %v; want 1, nil", n, err)
	}
	runs[1].Records = []metrics.CritPathRecord{gapped}
	if n, err := checkAttribution(runs); n != 2 || err == nil || !strings.Contains(err.Error(), "unattributed latency gap 100µs") {
		t.Errorf("a 100µs gap: %d checked, %v; want 2 and the gap named", n, err)
	}
}

// TestBenchtimeBundleIsAOnePassBundle: -benchtime reruns the experiment,
// and the bundle it writes equals a one-pass bundle file for file. The
// -benchtime is three one-pass runs, so that the run makes two passes or
// more however fast the machine is.
func TestBenchtimeBundleIsAOnePassBundle(t *testing.T) {
	bundle := func(extra ...string) (string, string) {
		dir := t.TempDir()
		var out, errOut bytes.Buffer
		args := append([]string{"-exp", "pipeline", "-scale", "small", "-slo", "-out", dir}, extra...)
		if code := cli(args, &out, &errOut); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, errOut.String())
		}
		return dir, out.String()
	}
	start := time.Now()
	once, _ := bundle()
	benchTime := 3 * time.Since(start)
	repeated, out := bundle("-benchtime", benchTime.String())
	if passes := strings.Count(out, "(pipeline completed in "); passes < 2 {
		t.Fatalf("-benchtime %v ran %d pass(es); the test needs two or more", benchTime, passes)
	}
	files, _ := filepath.Glob(filepath.Join(once, "*"))
	if len(files) != 7 { // metrics, critpath, slo, and a trace and a ledger per case
		t.Errorf("one-pass bundle holds %d files, want 7", len(files))
	}
	for _, f := range files {
		a, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(repeated, filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the -benchtime and the one-pass bundle", filepath.Base(f))
		}
	}
	if more, _ := filepath.Glob(filepath.Join(repeated, "*")); len(more) != len(files) {
		t.Errorf("-benchtime bundle holds %d files, the one-pass bundle %d", len(more), len(files))
	}
}

// TestEveryShotWritesItsOwnRun: fig5a and fig5b sweep the same combos,
// restore modes and orders, and each labels its shots by its own name as
// well, so each -out bundle holds one trace file, one ledger file and one
// metrics run per shot, and no shot file of one figure's bundle shares
// its name with one of the other's: merged into one directory, neither
// figure would overwrite the other's shots.
func TestEveryShotWritesItsOwnRun(t *testing.T) {
	owner := map[string]string{} // shot file name -> the figure that wrote it
	for _, exp := range []string{"fig5a", "fig5b"} {
		dir := t.TempDir()
		var out, errOut bytes.Buffer
		args := []string{"-exp", exp, "-scale", "small", "-out", dir}
		if code := cli(args, &out, &errOut); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, errOut.String())
		}
		shots := strings.Count(out.String(), "wrote trace ")
		if shots == 0 {
			t.Fatalf("-exp %s traced no shot", exp)
		}
		runs, err := report.MetricsFile.LoadFile(filepath.Join(dir, "metrics.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != shots {
			t.Errorf("-exp %s: metrics.json holds %d runs for %d shots", exp, len(runs), shots)
		}
		for _, pattern := range []string{"trace-*.json", "ledger-*.txt"} {
			files, _ := filepath.Glob(filepath.Join(dir, pattern))
			if len(files) != shots {
				t.Errorf("-exp %s: %d %s files for %d shots", exp, len(files), pattern, shots)
			}
			for _, f := range files {
				if prev, ok := owner[filepath.Base(f)]; ok {
					t.Errorf("%s and %s both write %s", prev, exp, filepath.Base(f))
				}
				owner[filepath.Base(f)] = exp
			}
		}
	}
}
