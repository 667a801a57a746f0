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
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
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
	{"fig8a", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig8a(r, nil))(w) }},
	{"fig8b", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig8b(r, nil))(w) }},
	{"fig9a", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig9(r, true, nil))(w) }},
	{"fig9b", func(r experiments.Run, w io.Writer) error { return render(experiments.Fig9(r, false, nil))(w) }},
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
	metricsOut := fs.String("metrics-out", "", "write the aggregated metrics registry (histograms, counters, sampled series) as JSON to this file")
	promListen := fs.String("prom-listen", "", "serve the metrics registry in Prometheus text format on this address (e.g. :9464); blocks after the experiments finish")
	sample := fs.Duration("sample", 0, "sample tier/link gauges at this simulated interval during every shot (e.g. 100us); series land in -metrics-out")
	chunk := fs.Int64("chunk", 0, "stream multi-hop transfers in chunks of this many bytes, overlapping consecutive hops (0 = monolithic transfers)")
	traceOut := fs.String("trace-out", "", "write each shot's timeline in Chrome trace-event format; the shot label is appended to the name (trace.json -> trace-<label>.json), open in chrome://tracing or ui.perfetto.dev")
	critpathOut := fs.String("critpath-out", "", "write every shot's critical-path attribution records (score-critpath/v1 JSON) to this file")
	failUnattributed := fs.Bool("fail-on-unattributed", false, "exit non-zero if any attribution record carries an unattributed latency gap (instrumentation missed a blocking point)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the experiment run(s) to this file (inspect with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile (after a final GC) to this file when the run(s) finish")
	benchTime := fs.Duration("benchtime", 0, "repeat the selected experiment(s) until this much wall time has elapsed — stabilizes -cpuprofile samples on fast configs (0 = run once)")
	sloFlag := fs.Bool("slo", false, "evaluate each scenario's checked-in SLO objectives on the virtual clock (burn-rate alerting with critical-path attribution) and print the compliance table")
	sloOut := fs.String("slo-out", "", "write the per-run SLO compliance reports (score-slo/v1 JSON) to this file; implies -slo")
	failSLO := fs.Bool("fail-on-slo", false, "exit non-zero if any objective fired an alert or missed its goal; implies -slo")
	fs.Usage = func() {
		fmt.Fprintf(stderr, `Usage: ckptbench -exp <name> [flags]

Examples:
  ckptbench -exp fig5a                                        # one figure at paper scale
  ckptbench -exp all -scale small                             # everything, 1/16 scale
  ckptbench -exp pipeline -scale small \
      -trace-out trace.json -critpath-out critpath.json       # mono-vs-chunked transfer comparison with
                                                              # per-component latency attribution; writes
                                                              # trace-pipeline-mono.json, trace-pipeline-chunked.json,
                                                              # and the score-critpath/v1 breakdown JSON
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
	if *sample > 0 && *metricsOut == "" && *promListen == "" {
		return usageErr("-sample records series only with -metrics-out or -prom-listen; add one or drop -sample")
	}
	if *chunk < 0 {
		return usageErr("-chunk must be non-negative (got %d)", *chunk)
	}
	if *benchTime < 0 {
		return usageErr("-benchtime must be non-negative (got %v)", *benchTime)
	}
	// Output paths are validated before any experiment runs: discovering
	// an unwritable directory after a long sweep would discard its data.
	for _, out := range []struct{ flag, path string }{
		{"-metrics-out", *metricsOut},
		{"-trace-out", *traceOut},
		{"-critpath-out", *critpathOut},
		{"-cpuprofile", *cpuProfile},
		{"-memprofile", *memProfile},
		{"-slo-out", *sloOut},
	} {
		if out.path == "" {
			continue
		}
		dir := filepath.Dir(out.path)
		if info, err := os.Stat(dir); err != nil || !info.IsDir() {
			return usageErr("%s %q: directory %q does not exist", out.flag, out.path, dir)
		}
	}

	sloOn := *sloFlag || *sloOut != "" || *failSLO
	run := experiments.Run{SampleInterval: *sample, ChunkSize: *chunk, SLO: sloOn}
	switch *scaleName {
	case "full":
		run.Scale = experiments.Full()
	case "small":
		run.Scale = experiments.Small()
	default:
		return usageErr("unknown scale %q", *scaleName)
	}

	registry := metrics.NewRegistry()
	var critRuns []report.CritPathRun
	recordMetrics := *metricsOut != "" || *promListen != ""
	collectCritPaths := *critpathOut != "" || *failUnattributed
	if recordMetrics || collectCritPaths {
		run.OnShot = func(res experiments.ShotResult) {
			merged := res.MergedSummary()
			if recordMetrics {
				registry.Record(res.Label(), merged)
				if len(res.Series) > 0 {
					registry.RecordSeries(res.Label(), res.Series)
				}
			}
			if collectCritPaths {
				// Merge has sorted the records; a run without any (a
				// baseline approach) is written as [], not null.
				critRuns = append(critRuns, report.CritPathRun{
					Label: res.Label(), Records: append([]metrics.CritPathRecord{}, merged.CritPaths...),
				})
			}
		}
	}
	var sloRuns []report.SLORun
	if sloOn {
		run.OnSLO = func(label string, rep slo.Report) {
			sloRuns = append(sloRuns, report.SLORun{Label: label, Report: rep})
		}
	}
	// A trace that cannot be written fails the run once the scenario that
	// produced it returns.
	var traceErr error
	if *traceOut != "" {
		run.OnTrace = func(label string, tr *trace.Tracer) {
			path := tracePath(*traceOut, label)
			if err := writeTrace(path, tr); err != nil {
				if traceErr == nil {
					traceErr = fmt.Errorf("writing %s: %w", path, err)
				}
				return
			}
			if ev, cnt := tr.Dropped(); ev > 0 || cnt > 0 {
				fmt.Fprintf(stderr, "ckptbench: warning: %s is incomplete (%d spans, %d counter samples dropped at the retention cap)\n", path, ev, cnt)
			}
			fmt.Fprintf(stdout, "wrote trace %s\n", path)
		}
	}
	if *promListen != "" {
		go servePrometheus(*promListen, registry)
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
		for _, sc := range selected {
			scStart := time.Now()
			err := sc.run(run, stdout)
			fmt.Fprintf(stdout, "(%s completed in %v wall time)\n\n", sc.name, time.Since(scStart).Round(time.Millisecond))
			if err == nil {
				err = traceErr
			}
			if err != nil {
				return fail("%s: %v", sc.name, err)
			}
		}
		if *benchTime <= 0 || time.Since(start) >= *benchTime {
			break
		}
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

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, registry); err != nil {
			return fail("writing %s: %v", *metricsOut, err)
		}
		fmt.Fprintf(stdout, "wrote metrics for %d run(s) to %s\n", registry.Len(), *metricsOut)
	}
	if *critpathOut != "" {
		if err := report.CritPathFile.WriteFile(*critpathOut, critRuns); err != nil {
			return fail("writing %s: %v", *critpathOut, err)
		}
		fmt.Fprintf(stdout, "wrote critical-path attribution for %d run(s) to %s\n", len(critRuns), *critpathOut)
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
		if *sloOut != "" {
			if err := report.SLOFile.WriteFile(*sloOut, sloRuns); err != nil {
				return fail("writing %s: %v", *sloOut, err)
			}
			fmt.Fprintf(stdout, "wrote slo compliance for %d run(s) to %s\n", len(sloRuns), *sloOut)
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
	if *failUnattributed {
		// The per-rank metrics invariants already fail a shot whose
		// attribution leaves a gap; this re-checks the aggregated export
		// so the artifact itself is the proof.
		var gap time.Duration
		var records int
		for _, cr := range critRuns {
			records += len(cr.Records)
			gap += metrics.Summary{CritPaths: cr.Records}.CritPathUnattributed()
		}
		if gap > 0 {
			return fail("unattributed latency gap %v across %d attribution records", gap, records)
		}
		fmt.Fprintf(stdout, "attribution complete: 0 unattributed across %d records\n", records)
	}
	if *promListen != "" {
		fmt.Fprintf(stdout, "serving Prometheus metrics on %s/metrics (interrupt to exit)\n", *promListen)
		waitForInterrupt()
	}
	return 0
}

// tracePath derives the per-shot trace filename: base "trace.json" and
// label "pipeline/mono" become "trace-pipeline-mono.json".
func tracePath(base, label string) string {
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
	return strings.TrimSuffix(base, ext) + "-" + slug + ext
}

// writeTrace dumps one shot's Chrome trace to path.
func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the registry's JSON export to path.
func writeMetrics(path string, registry *metrics.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := registry.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// servePrometheus exposes the registry in Prometheus text exposition
// format; scrapes during the run see the experiments completed so far.
// The mux also serves the net/http/pprof handlers, so a long sweep can
// be profiled live (go tool pprof http://<addr>/debug/pprof/profile)
// without restarting it under -cpuprofile. The handlers are registered
// explicitly: the package's DefaultServeMux side-effect registration
// does not reach this private mux.
func servePrometheus(addr string, registry *metrics.Registry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "ckptbench: -prom-listen: %v\n", err)
		os.Exit(1)
	}
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
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
	stats, err := experiments.Fig4(run.Scale, 32)
	if err != nil {
		return err
	}
	tab := report.NewTable("Fig. 4 — Size distribution of 32 RTM snapshots",
		"snapshot", "min", "avg", "max")
	step := len(stats) / 24
	if step == 0 {
		step = 1
	}
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
		step := len(series) / 16
		if step == 0 {
			step = 1
		}
		var rates, dists []float64
		for i, p := range series {
			rate := float64(p.Bytes) / maxSeconds(p.Blocked)
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
	cfg := experiments.PreemptConfig{}
	if run.Bandwidth != 1 {
		// 1/16-scale backlog with windows shrunk to match, preserving the
		// full sweep's miss-to-hit gradient.
		cfg.Size = 256 << 20
		cfg.Windows = []time.Duration{
			125 * time.Millisecond, 312 * time.Millisecond, 1 * time.Second, 2 * time.Second,
		}
	}
	res, err := experiments.Preemption(run, cfg)
	if err != nil {
		return err
	}
	backlog := float64(int64(res.Config.Checkpoints)*res.Config.Size) / 1e9
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
	res, err := experiments.Straggler(run, experiments.StragglerConfig{})
	if err != nil {
		return err
	}
	backlog := float64(int64(res.Config.Checkpoints)*res.Config.Size) / 1e9
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

// runMigrate runs the live-migration scenario twice — clean and with an
// injected copy fault — and prints the cutover outcomes side by side.
func runMigrate(_ experiments.Run, w io.Writer) error {
	tab := report.NewTable("Live migration — SSD tier to successor node, racing foreground traffic",
		"copy fault", "versions", "live rounds", "final validated", "migrated", "faults fired", "restored", "bit-exact")
	for _, inject := range []bool{false, true} {
		root, err := os.MkdirTemp("", "ckptbench-migrate-*")
		if err != nil {
			return err
		}
		res, err := experiments.Migration(experiments.MigrateConfig{
			StoreRoot:   root,
			InjectFault: inject,
		})
		os.RemoveAll(root)
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
func runElastic(_ experiments.Run, w io.Writer) error {
	tab := report.NewTable("Elastic restart — re-shard N ranks onto M at a new membership epoch",
		"transition", "epoch", "committed", "frontier", "tracker consistent", "shards restored", "recoverable")
	for _, tr := range []struct{ from, to int }{{4, 2}, {2, 3}} {
		root, err := os.MkdirTemp("", "ckptbench-elastic-*")
		if err != nil {
			return err
		}
		res, err := experiments.Elastic(experiments.ElasticConfig{
			StoreRoot: root,
			FromRanks: tr.from,
			ToRanks:   tr.to,
		})
		os.RemoveAll(root)
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
func runRankFail(_ experiments.Run, w io.Writer) error {
	tab := report.NewTable("Rank failure — node kill mid-flush, restart from LatestConsistent()",
		"partner copy", "ranks killed", "commit lag", "partner bytes", "recoverable", "restored version", "ranks restored")
	for _, partner := range []bool{false, true} {
		root, err := os.MkdirTemp("", "ckptbench-rankfail-*")
		if err != nil {
			return err
		}
		res, err := experiments.RankFailure(experiments.RankFailConfig{
			StoreRoot:   root,
			PartnerCopy: partner,
		})
		os.RemoveAll(root)
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

func maxSeconds(d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 1e-9
	}
	return s
}

func sizeMB(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
