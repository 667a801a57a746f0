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

	"score"
	"score/internal/experiments"
	"score/internal/metrics"
	"score/internal/report"
	"score/internal/slo"
	"score/internal/trace"
)

// scenario is one -exp value: a name and the function that runs it under
// the invocation's Run and prints its rows.
type scenario struct {
	name string
	run  func(experiments.Run, io.Writer) error
}

// scenarios is the one ordered table that -exp, -exp all, -list, the flag
// help and the unknown-name error are derived from.
var scenarios = []scenario{
	{"table1", runTable1},
	{"fig4", runFig4},
	{"fig5a", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig5(r, true))(w) }},
	{"fig5b", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig5(r, false))(w) }},
	{"fig6a", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig6(r, true))(w) }},
	{"fig6b", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig6(r, false))(w) }},
	{"fig7", runFig7},
	{"fig8a", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig8a(r))(w) }},
	{"fig8b", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig8b(r))(w) }},
	{"fig9a", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig9(r, true))(w) }},
	{"fig9b", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig9(r, false))(w) }},
	{"ablations", func(r experiments.Run, w io.Writer) error { return render(experiments.Ablations(r))(w) }},
	{"evict", func(r experiments.Run, w io.Writer) error { return render(experiments.EvictionMatrix(r))(w) }},
	{"rankfail", runRankFail},
	{"pipeline", func(r experiments.Run, w io.Writer) error { return render(experiments.Pipeline(r))(w) }},
	{"preempt", runPreempt},
	{"migrate", runMigrate},
	{"elastic", runElastic},
	{"straggler", runStraggler},
}

// scenarioNames lists the table's names in order.
func scenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
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
	exp := fs.String("exp", "", "experiment to run: "+strings.Join(scenarioNames(), ", ")+", or 'all'")
	scaleName := fs.String("scale", "full", "workload scale: full (paper) or small (1/16)")
	list := fs.Bool("list", false, "list experiments and exit")
	out := fs.String("out", "", "write the run bundle into this existing, empty directory: metrics.json (score-metrics/v1), critpath.json (score-critpath/v1), slo.json (score-slo/v1, under -slo or -fail-on-slo), and per shot trace-<label>.json (Chrome trace events, open in chrome://tracing or ui.perfetto.dev) and ledger-<label>.txt (every flight-recorder event); an unattributed latency gap in the exported records fails the run")
	sample := fs.Duration("sample", 0, "sample tier/link gauges at this simulated interval during every shot (e.g. 100us); series land in -out's metrics.json and as counter tracks in its traces")
	chunk := fs.Int64("chunk", 0, "stream every shot's multi-hop transfers, the fault scenarios' included, in chunks of this many bytes, overlapping consecutive hops (0 = monolithic; the pipeline experiment and the transfer-pipelining ablation rows set their own)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the experiment run(s) to this file (inspect with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile (after a final GC) to this file when the run(s) finish")
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
		for _, name := range scenarioNames() {
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
	var selected []scenario
	switch *exp {
	case "":
		return usageErr("-exp required (use -list to enumerate)")
	case "all":
		selected = scenarios
	default:
		for _, sc := range scenarios {
			if sc.name == *exp {
				selected = []scenario{sc}
			}
		}
		if selected == nil {
			return usageErr("unknown experiment %q (registered: %s, all)", *exp, strings.Join(scenarioNames(), ", "))
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
	start := time.Now()
	for {
		// A -benchtime pass rewrites the traces and ledgers with the same
		// bytes; the collectors restart, so the bundle is a one-pass one.
		registry, critRuns, sloRuns = metrics.NewRegistry(), nil, nil
		for _, sc := range selected {
			scStart := time.Now()
			err := sc.run(run, stdout)
			fmt.Fprintf(stdout, "(%s completed in %v wall time)\n\n", sc.name, time.Since(scStart).Round(time.Millisecond))
			if err == nil {
				err = shotErr
			}
			if err != nil {
				return fail("%s: %v", sc.name, err)
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

// render prints a driver's result, or passes the driver's error through.
// It returns a function of the writer so that a driver call can be spread
// into its arguments: render(experiments.Fig5(r, true))(w).
func render[T interface{ Render(io.Writer) error }](res T, err error) func(io.Writer) error {
	return func(w io.Writer) error {
		if err != nil {
			return err
		}
		return res.Render(w)
	}
}

func runTable1(_ experiments.Run, w io.Writer) error {
	tab := report.NewTable("Table 1 — Compared approaches", "notation", "prefetch hints")
	for _, c := range experiments.Table1() {
		hints := map[experiments.HintMode]string{
			experiments.NoHints: "0", experiments.SingleHint: "1", experiments.AllHints: "All",
		}[c.Hints]
		tab.AddRow(c.Label(), hints)
	}
	return tab.Render(w)
}

func runFig4(run experiments.Run, w io.Writer) error {
	stats, err := experiments.Fig4(run.Scale)
	if err != nil {
		return err
	}
	tab := report.NewTable("Fig. 4 — Size distribution of 32 RTM snapshots",
		"snapshot", "min", "avg", "max")
	step := max(len(stats)/24, 1)
	var avgs []float64
	for i, st := range stats {
		avgs = append(avgs, float64(st.Avg))
		if i%step == 0 {
			tab.AddRow(st.Snapshot, sizeMB(st.Min), sizeMB(st.Avg), sizeMB(st.Max))
		}
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "avg-size curve: %s\n", report.Sparkline(avgs))
	return nil
}

// runFig7 prints the figure's rows, then the per-timestep restore rate
// and prefetch distance curves (downsampled) for each hint budget.
func runFig7(run experiments.Run, w io.Writer) error {
	fig, err := experiments.Fig7(run)
	if err != nil {
		return err
	}
	if err := fig.Render(w); err != nil {
		return err
	}
	for _, hints := range []string{"No hints", "Single hint", "All hints"} {
		series := fig.Series[hints]
		if len(series) == 0 {
			continue
		}
		tab := report.NewTable(fmt.Sprintf("Fig. 7 series — %s (Score)", hints),
			"iteration", "restore rate", "next prefetches completed")
		step := max(len(series)/16, 1)
		var rates, dists []float64
		for i, p := range series {
			rate := float64(p.Bytes) / max(p.Blocked.Seconds(), 1e-9)
			rates = append(rates, rate)
			dists = append(dists, float64(p.PrefetchDistance))
			if i%step == 0 {
				tab.AddRow(p.Iteration, metrics.FormatBytesPerSec(rate), p.PrefetchDistance)
			}
		}
		if err := tab.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "restore-rate curve:     %s\n", report.Sparkline(rates))
		fmt.Fprintf(w, "prefetch-distance curve: %s\n\n", report.Sparkline(dists))
	}
	return nil
}

// runPreempt sweeps the preemption grace window and answers the paper's
// operational question — can the ladder drain the backlog (48 GB at full
// scale) before the reclaim lands? — with the deadline-hit rate and
// drain throughput per window, plus one complete drain manifest.
func runPreempt(run experiments.Run, w io.Writer) error {
	res, err := experiments.Preemption(run)
	if err != nil {
		return err
	}
	backlog := float64(res.Backlog) / 1e9
	tab := report.NewTable(
		fmt.Sprintf("Preemption drain — %.0f GB backlog, oldest-durability-first triage", backlog),
		"grace window", "runs", "deadline hits", "hit rate", "durable", "abandoned", "discarded", "GB/s of grace")
	for _, cell := range res.Cells {
		tab.AddRow(
			cell.Window, cell.Runs,
			fmt.Sprintf("%d/%d", cell.DeadlineHits, cell.Runs),
			fmt.Sprintf("%.0f%%", 100*cell.HitRate()),
			sizeMB(cell.DurableBytes),
			sizeMB(cell.AbandonedBytes),
			sizeMB(cell.DiscardedBytes),
			fmt.Sprintf("%.2f", cell.DrainThroughput()),
		)
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	m := res.SampleManifest
	fmt.Fprintf(w, "sample drain manifest (window %v): %s\n", m.Grace, m)
	for _, e := range m.Entries {
		detail := e.Tier
		if e.Outcome == score.DrainAbandoned {
			detail = e.Reason
		}
		fmt.Fprintf(w, "  v%-3d %-10s %-16s %-24s t=%v\n", e.Version, sizeMB(e.Size), e.Outcome, detail, e.At)
	}
	return nil
}

// runStraggler sweeps NVMe slowdown severity with hedged restores off
// and on and prints the restore-tail contrast: the gray-failure
// machinery's value is the gap between the two P99 columns at high
// severity (hedge wins racing the PFS replica, or a health quarantine
// routing around the straggler entirely).
func runStraggler(run experiments.Run, w io.Writer) error {
	res, err := experiments.Straggler(run)
	if err != nil {
		return err
	}
	backlog := float64(res.Backlog) / 1e9
	tab := report.NewTable(
		fmt.Sprintf("Straggler restores — %.1f GB over a silently degraded NVMe link, SSD→PFS hedge ladder", backlog),
		"severity", "mode", "restores", "p50", "p99", "max", "hedges (wins)", "wasted", "stalls (rerouted)", "quarantines")
	for _, c := range res.Cells {
		mode := "unhedged"
		if c.Hedged {
			mode = "hedged"
		}
		tab.AddRow(
			fmt.Sprintf("%g×", c.Severity), mode, c.Restores,
			c.P50, c.P99, c.Max,
			fmt.Sprintf("%d (%d)", c.HedgesLaunched, c.HedgeWins),
			sizeMB(c.HedgeWastedBytes),
			fmt.Sprintf("%d (%d)", c.StallsDetected, c.StallsRerouted),
			c.HealthQuarantines,
		)
	}
	return tab.Render(w)
}

// inTempStore runs a store-backed scenario on a fresh temporary store
// root and removes the root afterwards.
func inTempStore[R any](scenario func(root string) (R, error)) (R, error) {
	root, err := os.MkdirTemp("", "ckptbench-store-*")
	if err != nil {
		var zero R
		return zero, err
	}
	defer os.RemoveAll(root)
	return scenario(root)
}

// runMigrate runs the live-migration scenario twice — clean and with an
// injected copy fault — and prints the cutover outcomes side by side.
func runMigrate(run experiments.Run, w io.Writer) error {
	tab := report.NewTable("Live migration — SSD tier to successor node, racing foreground traffic",
		"copy fault", "versions", "live rounds", "final validated", "migrated", "faults fired", "restored", "bit-exact")
	for _, inject := range []bool{false, true} {
		res, err := inTempStore(func(root string) (experiments.MigrateResult, error) {
			return experiments.Migration(run, experiments.MigrateConfig{StoreRoot: root, InjectFault: inject})
		})
		if err != nil {
			return err
		}
		tab.AddRow(
			map[bool]string{false: "off", true: "injected"}[inject],
			res.Versions,
			res.Live.Rounds,
			map[bool]string{false: "NO", true: "yes"}[res.Final.Validated],
			sizeMB(res.MigratedBytes),
			res.InjectedFaults,
			fmt.Sprintf("%d/%d", res.RestoredVersions, res.Versions),
			map[bool]string{false: "NO", true: "yes"}[res.Recoverable],
		)
	}
	return tab.Render(w)
}

// runElastic re-shards checkpoint state across membership changes in both
// directions and prints the recomputed frontier and restore outcomes.
func runElastic(run experiments.Run, w io.Writer) error {
	tab := report.NewTable("Elastic restart — re-shard N ranks onto M at a new membership epoch",
		"transition", "epoch", "committed", "frontier", "tracker consistent", "shards restored", "recoverable")
	for _, tr := range []struct{ from, to int }{{4, 2}, {2, 3}} {
		res, err := inTempStore(func(root string) (experiments.ElasticResult, error) {
			return experiments.Elastic(run, experiments.ElasticConfig{StoreRoot: root, FromRanks: tr.from, ToRanks: tr.to})
		})
		if err != nil {
			return err
		}
		tab.AddRow(
			fmt.Sprintf("%d -> %d ranks", res.FromRanks, res.ToRanks),
			res.Epoch,
			res.Committed,
			fmt.Sprintf("v%d", res.Frontier),
			map[bool]string{false: "NO", true: "yes"}[res.TrackerConsistent],
			fmt.Sprintf("%d/%d", res.RestoredShards, res.FromRanks),
			map[bool]string{false: "NO", true: "yes"}[res.Recoverable],
		)
	}
	return tab.Render(w)
}

// runRankFail runs the cluster failure scenario twice — with and without
// partner-copy replication — and prints the recovery outcomes side by
// side: a full-node kill mid-flush is survivable only with replication.
func runRankFail(run experiments.Run, w io.Writer) error {
	tab := report.NewTable("Rank failure — node kill mid-flush, restart from LatestConsistent()",
		"partner copy", "ranks killed", "commit lag", "partner bytes", "recoverable", "restored version", "ranks restored")
	for _, partner := range []bool{false, true} {
		res, err := inTempStore(func(root string) (experiments.RankFailResult, error) {
			return experiments.RankFailure(run, experiments.RankFailConfig{StoreRoot: root, PartnerCopy: partner})
		})
		if err != nil {
			return err
		}
		restored := "—"
		if res.Recoverable {
			restored = fmt.Sprintf("v%d", res.LatestConsistent)
		}
		tab.AddRow(
			map[bool]string{false: "off", true: "on"}[partner],
			len(res.Killed), res.CommitLag,
			sizeMB(res.PartnerCopyBytes),
			map[bool]string{false: "NO", true: "yes"}[res.Recoverable],
			restored,
			fmt.Sprintf("%d/%d", res.RestoredRanks, res.Ranks),
		)
	}
	return tab.Render(w)
}

func sizeMB(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
