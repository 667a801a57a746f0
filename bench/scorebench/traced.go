package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"score/bench/layers"
	"score/internal/metrics"
)

// critComponents are the critical-path components reported as shares of
// time-to-durable and of restore blocking.
var critComponents = []string{
	metrics.CompQueueD2H, metrics.CompQueueH2F, metrics.CompXferPCIe, metrics.CompXferSSD,
	metrics.CompXferPFS, metrics.CompGPUAdmit, metrics.CompHostAdmit, metrics.CompGPUWait,
	metrics.CompPromoteWait, metrics.CompAlloc, metrics.CompStorePut, metrics.CompCopyD2D,
}

// timedCalls are the API calls whose wall and simulated P50/P99 are
// reported; singleCalls report a median wall time only.
var (
	timedCalls  = []spanKind{spanCheckpoint, spanRestart, spanWaitFlush, spanPrefetchEnqueue}
	singleCalls = []spanKind{spanNewClient, spanClose, spanMetricsSummary, spanWriteTrace}
)

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// tracedShots splits a traced run's budget: three tenths of the
// end-to-end shot count untraced for reference, four tenths traced, the
// rest of the time left to the layer drivers.
func tracedShots(shots int) (ref, traced int) {
	ref, traced = shots*3/10, shots*4/10
	if ref < 3 {
		ref = 3
	}
	if traced < 3 {
		traced = 3
	}
	return ref, traced
}

// runTraced is the --trace 1 pass: a few untraced reference shots, then
// traced shots with the span recorder and a CPU profile on, then the
// isolated layer drivers. It reports every per-layer metric and writes
// the span file and the layer-share table.
func runTraced(rc runConfig, refInputs, tracedInputs []shotInput) (result, error) {
	reps := layers.Reps
	if rc.tiny {
		reps = 1
	}
	opt := shotOptions{gpuCache: rc.gpuCache}
	ref, err := measureShots(rc, refInputs, opt, newAccum(), false)
	if err != nil {
		return result{}, err
	}

	// A rank records three spans per snapshot (hint, checkpoint, restart)
	// and a handful per shot.
	rec := newRecorder(rc.w.ranks(), len(tracedInputs)*(3*rc.w.Snapshots+8))
	root := rec.harness().begin(nil)
	opt.rec, opt.parent = rec, root.id
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	acc := newAccum()
	traced, err := measureShots(rc, tracedInputs, opt, acc, false)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	rec.harness().end(spanWorkload, -1, 0, root, nil)

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("decoding the CPU profile: %w", err)
	}
	shares := aggregateLayers(samples)
	spans := rec.all()

	m := map[string]metric{
		"trace_overhead_ratio": {median(traced.wall) / median(ref.wall), "ratio"},
	}
	for _, l := range hostLayers {
		m["host."+l+".self_share"] = metric{shares.Self[l], "share"}
		m["host."+l+".cum_share"] = metric{shares.Cum[l], "share"}
	}
	m["host.goruntime.sched_share"] = metric{shares.Self[bucketSched], "share"}
	m["host.goruntime.gc_share"] = metric{shares.Self[bucketGC], "share"}
	m["host.harness.self_share"] = metric{shares.Self[bucketHarness], "share"}
	m["host.other.self_share"] = metric{shares.Self[bucketOther], "share"}

	wall, sim := map[spanKind][]int64{}, map[spanKind][]int64{}
	for _, s := range spans {
		wall[s.Kind] = append(wall[s.Kind], s.WallEnd-s.WallStart)
		sim[s.Kind] = append(sim[s.Kind], s.SimEnd-s.SimStart)
	}
	for _, k := range timedCalls {
		m[spanNames[k]+".wall_p50_us"] = metric{float64(percentile(wall[k], 50)) / 1e3, "us"}
		m[spanNames[k]+".wall_p99_us"] = metric{float64(percentile(wall[k], 99)) / 1e3, "us"}
		m[spanNames[k]+".sim_p50_ms"] = metric{float64(percentile(sim[k], 50)) / 1e6, "ms"}
		m[spanNames[k]+".sim_p99_ms"] = metric{float64(percentile(sim[k], 99)) / 1e6, "ms"}
	}
	for _, k := range singleCalls {
		m[spanNames[k]+".wall_ms"] = metric{float64(percentile(wall[k], 50)) / 1e6, "ms"}
	}

	ops := float64(acc.ckpts + acc.restores)
	for _, c := range critComponents {
		m["core.durable."+c+"_share"] = metric{share(float64(acc.durable[c]), float64(acc.durableTotal)), "share"}
		m["core.restore."+c+"_share"] = metric{share(float64(acc.restore[c]), float64(acc.restoreTotal)), "share"}
	}
	// Every thread of a rank (application, flushers, prefetcher) can wait
	// for an eviction window, so this is measured against rank-seconds
	// of makespan, not against the application's I/O wait.
	rankTime := float64(acc.makespan) * float64(rc.w.ranks())
	m["core.restore.gpu_served_ratio"] = metric{share(float64(acc.gpuServed), float64(acc.restores)), "ratio"}
	m["core.sync_flush_ratio"] = metric{share(float64(acc.syncFlushes), float64(acc.ckpts)), "ratio"}
	m["core.deviation_read_ratio"] = metric{share(float64(acc.deviations), float64(acc.restores)), "ratio"}
	m["core.unattributed_ns"] = metric{float64(acc.unattributed), "ns"}
	m["cachebuf.evict_wait_share"] = metric{share(float64(acc.evictWait), rankTime), "share"}
	m["cachebuf.mean_prefetch_distance"] = metric{share(acc.prefetchDistSum, float64(acc.clients)), "count"}
	m["fabric.pipeline_overlap_share"] = metric{share(float64(acc.pipeHopBusy-acc.pipeElapsed), float64(acc.pipeHopBusy)), "share"}
	m["fabric.pipelined_streams_per_op"] = metric{share(float64(acc.pipeStreams), ops), "count"}
	m["metrics.critpath_records_per_op"] = metric{share(float64(acc.critRecords), ops), "count"}
	m["trace.events_per_op"] = metric{share(float64(acc.traceEvents), ops), "count"}
	m["trace.events_dropped"] = metric{float64(acc.traceDropped), "count"}
	m["slo.alerts_fired"] = metric{float64(acc.fired), "count"}

	drivers, err := layers.Run(reps)
	if err != nil {
		return result{}, err
	}
	for _, d := range drivers {
		m[d.Name] = metric{d.Value, d.Unit}
	}

	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(filepath.Join(rc.outDir, "trace_"+rc.w.Name+".json"), rc.w.Name, spans); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(rc.outDir, "cpu_"+rc.w.Name+".pprof"), prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	table := layerTable(rc.w.Name, shares, spans, len(tracedInputs), median(traced.wall), median(ref.wall))
	if err := os.WriteFile(filepath.Join(rc.outDir, "layers_"+rc.w.Name+".txt"), []byte(table), 0o644); err != nil {
		return result{}, err
	}
	fmt.Fprint(os.Stderr, table)
	acc.reportFailures(rc.w.Name)
	return result{Correct: acc.failed == 0, Attempted: acc.attempted, Failed: acc.failed, Metrics: m}, nil
}

// layerTable renders the host shares of one traced run.
func layerTable(name string, sh layerShares, spans []span, shots int, tracedWall, refWall float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d traced shots, %.2f s of CPU samples, wall per shot %.4f s traced / %.4f s untraced\n",
		name, shots, time.Duration(sh.TotalNs).Seconds(), tracedWall, refWall)
	fmt.Fprintf(&b, "%-18s %10s %10s\n", "layer", "self", "cum")
	var selfSum float64
	rows := append(append([]string{}, hostLayers...), bucketSched, bucketGC, bucketHarness, bucketOther)
	for _, l := range rows {
		cum := "-"
		if c, ok := sh.Cum[l]; ok {
			cum = fmt.Sprintf("%9.2f%%", 100*c)
		}
		fmt.Fprintf(&b, "%-18s %9.2f%% %10s\n", l, 100*sh.Self[l], cum)
		selfSum += sh.Self[l]
	}
	fmt.Fprintf(&b, "%-18s %9.2f%%\n", "sum of self", 100*selfSum)
	self, total := shotSelfWall(spans)
	fmt.Fprintf(&b, "shot spans: %.1f %% of their wall time is outside every API call span\n", 100*share(float64(self), float64(total)))
	counts := map[spanKind]int{}
	for _, s := range spans {
		counts[s.Kind]++
	}
	kinds := make([]int, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-22s %8d spans\n", spanNames[k], counts[spanKind(k)])
	}
	return b.String()
}
