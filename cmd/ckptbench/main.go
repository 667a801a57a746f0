// Command ckptbench regenerates the paper's evaluation: each -exp value
// reruns one table or figure of "GPU-Enabled Asynchronous Multi-level
// Checkpoint Caching and Prefetching" (HPDC '23) on the simulated
// DGX-A100 cluster and prints the corresponding rows.
//
// Usage:
//
//	ckptbench -exp fig5a              # one figure at paper scale
//	ckptbench -exp all -scale small   # everything, 1/16 scale
//	ckptbench -list                   # enumerate experiments
package main

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"score/internal/experiments"
	"score/internal/metrics"
	"score/internal/report"
	"score/internal/slo"
	"score/internal/trace"
)

// experimentNames lists experiments.Experiments' names in order: the
// values of -exp besides "all".
func experimentNames() []string {
	var names []string
	for _, e := range experiments.Experiments() {
		names = append(names, e.Name)
	}
	return names
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is the whole command: it parses args, runs the selected scenarios
// and returns the process exit status (2 for a usage error, 1 for a
// failed run).
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ckptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment to run: "+strings.Join(experimentNames(), ", ")+", or 'all'")
	scaleName := fs.String("scale", "full", "workload scale: full (paper) or small (1/16)")
	list := fs.Bool("list", false, "list experiments and exit")
	out := fs.String("out", "", "write the run bundle into this existing, empty directory: metrics.json (score-metrics/v1), critpath.json (score-critpath/v1), slo.json (score-slo/v1, under -slo or -fail-on-slo), and per shot trace-<label>.json (Chrome trace events, open in chrome://tracing or ui.perfetto.dev) and ledger-<label>.txt (every flight-recorder event); an unattributed latency gap in the exported records fails the run")
	sample := fs.Duration("sample", 0, "sample tier/link gauges at this simulated interval during every shot (e.g. 100us); series land in -out's metrics.json and as counter tracks in its traces")
	chunk := fs.Int64("chunk", 0, "stream every shot's multi-hop transfers, the fault scenarios' included, in chunks of this many bytes, overlapping consecutive hops (0 = monolithic; the pipeline experiment and the transfer-pipelining ablation rows set their own)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the experiment run(s) to this file (inspect with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile (after a final GC) to this file when the run(s) finish; it records every allocation (runtime.MemProfileRate = 1), so object counts are exact and the run is slower")
	benchTime := fs.Duration("benchtime", 0, "repeat the selected experiment(s) until this much wall time has elapsed — stabilizes -cpuprofile samples on fast configs (0 = run once)")
	sloFlag := fs.Bool("slo", false, "evaluate each scenario's checked-in SLO objectives on the virtual clock (burn-rate alerting with critical-path attribution) and print the compliance table")
	failSLO := fs.Bool("fail-on-slo", false, "exit non-zero if any objective fired an alert or missed its goal; implies -slo")
	fs.Usage = func() {
		fmt.Fprintf(stderr, `Usage: ckptbench -exp <name> [flags]

Examples:
  ckptbench -exp fig5a                                        # one figure at paper scale
  ckptbench -exp all -scale small                             # everything, 1/16 scale
  ckptbench -exp pipeline -scale small -out bundle            # mono-vs-chunked transfer comparison with
                                                              # per-component latency attribution; writes
                                                              # the run bundle (see -out) into bundle/
  ckptbench -list                                             # enumerate experiments

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, name := range experimentNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	// Validate the flag set up front: a bad combination exits with a
	// usage error before any (potentially long) experiment runs.
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "ckptbench: "+format+"\n", args...)
		return 1
	}
	usageErr := func(format string, args ...any) int {
		fail(format, args...)
		fs.Usage()
		return 2
	}
	var selected []experiments.Experiment
	switch *exp {
	case "":
		return usageErr("-exp required (use -list to enumerate)")
	case "all":
		selected = experiments.Experiments()
	default:
		for _, e := range experiments.Experiments() {
			if e.Name == *exp {
				selected = []experiments.Experiment{e}
			}
		}
		if selected == nil {
			return usageErr("unknown experiment %q (registered: %s, all)", *exp, strings.Join(experimentNames(), ", "))
		}
	}
	if *sample < 0 {
		return usageErr("-sample must be non-negative (got %v)", *sample)
	}
	if *sample > 0 && *out == "" {
		return usageErr("-sample records series only with -out; add it or drop -sample")
	}
	if *chunk < 0 {
		return usageErr("-chunk must be non-negative (got %d)", *chunk)
	}
	if *benchTime < 0 {
		return usageErr("-benchtime must be non-negative (got %v)", *benchTime)
	}
	// Output paths are checked before any run, so no sweep loses its data to
	// a bad one; -out must be empty, so no earlier run's file joins the bundle.
	for _, o := range []struct{ flag, path, dir string }{
		{"-out", *out, *out},
		{"-cpuprofile", *cpuProfile, filepath.Dir(*cpuProfile)},
		{"-memprofile", *memProfile, filepath.Dir(*memProfile)},
	} {
		if info, err := os.Stat(o.dir); o.path != "" && (err != nil || !info.IsDir()) {
			return usageErr("%s %q: directory %q does not exist", o.flag, o.path, o.dir)
		}
	}
	if entries, _ := os.ReadDir(*out); len(entries) > 0 {
		return usageErr("-out %q: directory is not empty; write the bundle into an empty one", *out)
	}

	sloOn := *sloFlag || *failSLO
	run := experiments.Run{SampleInterval: *sample, ChunkSize: *chunk, SLO: sloOn}
	switch *scaleName {
	case "full":
		run.Scale = experiments.Full()
	case "small":
		run.Scale = experiments.Small()
	default:
		return usageErr("unknown scale %q", *scaleName)
	}

	// The bundle's collectors, emptied by each pass of the loop below. A
	// trace or ledger that cannot be written fails its scenario's run.
	var registry *metrics.Registry
	var critRuns []report.CritPathRun
	var sloRuns []report.SLORun
	var shotErr error
	if *out != "" {
		run.OnShot = func(res experiments.ShotResult) {
			merged := res.MergedSummary()
			registry.Record(res.Label(), merged)
			if len(res.Series) > 0 {
				registry.RecordSeries(res.Label(), res.Series)
			}
			// Merge has sorted the records; a run without any (a
			// baseline approach) is written as [], not null.
			critRuns = append(critRuns, report.CritPathRun{
				Label: res.Label(), Records: append([]metrics.CritPathRecord{}, merged.CritPaths...),
			})
		}
		run.OnTrace = func(label string, tr *trace.Tracer) {
			tracePath, ledgerPath := shotPath(*out, "trace.json", label), shotPath(*out, "ledger.txt", label)
			if err := writeShot(tracePath, ledgerPath, tr); err != nil {
				shotErr = cmp.Or(shotErr, err)
				return
			}
			if ev, cnt := tr.Dropped(); ev > 0 || cnt > 0 {
				fmt.Fprintf(stderr, "ckptbench: warning: %s is incomplete (%d spans dropped at the retention cap, %d sampler counter samples outside its counter window)\n", tracePath, ev, cnt)
				if cnt > 0 {
					fmt.Fprintf(stderr, "ckptbench: warning: -sample %v keeps every counter sample of %s\n", keepAllCadence(*sample, cnt), tracePath)
				}
			}
			if n := tr.Flight().TotalDropped(); n > 0 {
				fmt.Fprintf(stderr, "ckptbench: warning: %s is incomplete (%d events dropped at the per-rank ring cap)\n", ledgerPath, n)
			}
			fmt.Fprintf(stdout, "wrote trace %s and ledger %s\n", tracePath, ledgerPath)
		}
	}
	if sloOn {
		run.OnSLO = func(label string, rep slo.Report) {
			sloRuns = append(sloRuns, report.SLORun{Label: label, Report: rep})
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail("starting CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stdout, "wrote CPU profile %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		runtime.MemProfileRate = 1 // sample every allocation, before the first run makes any
	}
	start := time.Now()
	for {
		// A -benchtime pass rewrites the traces and ledgers with the same
		// bytes; the collectors restart, so the bundle is a one-pass one.
		registry, critRuns, sloRuns = metrics.NewRegistry(), nil, nil
		for _, e := range selected {
			eStart := time.Now()
			res, err := e.Run(run)
			if err == nil {
				err = res.Render(stdout)
			}
			fmt.Fprintf(stdout, "(%s completed in %v wall time)\n\n", e.Name, time.Since(eStart).Round(time.Millisecond))
			if err == nil {
				err = shotErr
			}
			if err != nil {
				return fail("%s: %v", e.Name, err)
			}
		}
		if *benchTime <= 0 || time.Since(start) >= *benchTime {
			break
		}
	}
	// An experiment that simulates no shot (table1, fig4, evict) would
	// leave the bundle empty, so none is written.
	if *out != "" && len(critRuns) == 0 {
		return fail("experiment %q simulated no shot, so -out has nothing to record; drop it or pick another experiment", *exp)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail("%v", err)
		}
		runtime.GC() // settle live-heap numbers before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail("writing heap profile: %v", err)
		}
		if err := f.Close(); err != nil {
			return fail("writing heap profile: %v", err)
		}
		fmt.Fprintf(stdout, "wrote allocation profile %s\n", *memProfile)
	}

	if *out != "" {
		metricsPath, critpathPath := filepath.Join(*out, "metrics.json"), filepath.Join(*out, "critpath.json")
		if err := report.MetricsFile.WriteFile(metricsPath, registry.Runs()); err != nil {
			return fail("writing %s: %v", metricsPath, err)
		}
		fmt.Fprintf(stdout, "wrote metrics for %d run(s) to %s\n", registry.Len(), metricsPath)
		if err := report.CritPathFile.WriteFile(critpathPath, critRuns); err != nil {
			return fail("writing %s: %v", critpathPath, err)
		}
		fmt.Fprintf(stdout, "wrote critical-path attribution for %d run(s) to %s\n", len(critRuns), critpathPath)
		// The per-rank invariants already fail a shot whose attribution
		// leaves a gap; re-checking the export makes it the proof.
		records, err := checkAttribution(critRuns)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "attribution complete: 0 unattributed across %d records\n", records)
	}
	if sloOn {
		if err := report.SLOTable(sloRuns).Render(stdout); err != nil {
			return fail("rendering slo table: %v", err)
		}
		for _, sr := range sloRuns {
			for _, w := range sr.Report.Warnings {
				fmt.Fprintf(stderr, "ckptbench: warning: %s: %s\n", sr.Label, w)
			}
		}
		if *out != "" {
			sloPath := filepath.Join(*out, "slo.json")
			if err := report.SLOFile.WriteFile(sloPath, sloRuns); err != nil {
				return fail("writing %s: %v", sloPath, err)
			}
			fmt.Fprintf(stdout, "wrote slo compliance for %d run(s) to %s\n", len(sloRuns), sloPath)
		}
		if *failSLO {
			var breached []string
			for _, sr := range sloRuns {
				if sr.Report.Breached() {
					breached = append(breached, sr.Label)
				}
			}
			if len(breached) > 0 {
				return fail("slo breached in %d run(s): %s", len(breached), strings.Join(breached, ", "))
			}
			fmt.Fprintf(stdout, "slo compliance: %d run(s), no alerts fired, no goals missed\n", len(sloRuns))
		}
	}
	return 0
}

// checkAttribution counts the critical-path records of runs and fails if
// any carries an unattributed latency gap: a blocking point the
// instrumentation missed.
func checkAttribution(runs []report.CritPathRun) (records int, err error) {
	var gap time.Duration
	for _, cr := range runs {
		records += len(cr.Records)
		gap += metrics.Summary{CritPaths: cr.Records}.CritPathUnattributed()
	}
	if gap > 0 {
		err = fmt.Errorf("unattributed latency gap %v across %d attribution records", gap, records)
	}
	return records, err
}

// shotPath names one shot's file in the bundle directory dir: base
// "trace.json" and label "pipeline/mono" become dir/trace-pipeline-mono.json.
func shotPath(dir, base, label string) string {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, label)
	for strings.Contains(slug, "--") {
		slug = strings.ReplaceAll(slug, "--", "-")
	}
	slug = strings.Trim(slug, "-")
	ext := filepath.Ext(base)
	return filepath.Join(dir, strings.TrimSuffix(base, ext)+"-"+slug+ext)
}

// writeShot writes one shot's Chrome trace to tracePath and every event
// its flight recorder retains to ledgerPath, ranks in Ranks order and each
// rank's events in Ledger order, a line each: the rank (-1 for cluster-wide
// events), the version, the simulated time to the microsecond and the
// kind, then the tier in brackets and the detail when they are set.
func writeShot(tracePath, ledgerPath string, tr *trace.Tracer) error {
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := errors.Join(tr.WriteJSON(f), f.Close()); err != nil {
		return fmt.Errorf("writing %s: %w", tracePath, err)
	}
	var buf bytes.Buffer
	fl := tr.Flight()
	for _, rank := range fl.Ranks() {
		for _, ev := range fl.Ledger(rank) {
			fmt.Fprintf(&buf, "%d %d %v %s", ev.Rank, ev.Version, ev.At.Round(time.Microsecond), ev.Kind)
			if ev.Tier != "" {
				fmt.Fprintf(&buf, " [%s]", ev.Tier)
			}
			if ev.Detail != "" {
				fmt.Fprintf(&buf, " %s", ev.Detail)
			}
			buf.WriteByte('\n')
		}
	}
	return os.WriteFile(ledgerPath, buf.Bytes(), 0o644)
}

// keepAllCadence is the -sample interval that keeps every counter sample
// of a trace which, sampled every every, dropped dropped of them: the
// samples taken (dropped plus the trace.DefaultCounterCap shown) shrink
// by the factor the interval grows.
func keepAllCadence(every time.Duration, dropped int64) time.Duration {
	return every * time.Duration((dropped+2*trace.DefaultCounterCap-1)/trace.DefaultCounterCap)
}
