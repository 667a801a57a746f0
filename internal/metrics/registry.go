// Registry: a process-wide collection point for run summaries and sampled
// series, exported as Prometheus text exposition or JSON. The JSON form is
// the interchange format internal/report parses back.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// ExportSchema identifies the JSON export format version.
const ExportSchema = "score-metrics/v1"

// Export is one labeled run's observability snapshot.
type Export struct {
	Label   string              `json:"label"`
	Summary Summary             `json:"summary"`
	Series  map[string][]Sample `json:"series,omitempty"`
}

// ExportFile is the on-disk JSON export: a schema marker plus every
// recorded run.
type ExportFile struct {
	Schema string   `json:"schema"`
	Runs   []Export `json:"runs"`
}

// Registry accumulates labeled run summaries and series. Safe for
// concurrent use.
type Registry struct {
	mu    sync.Mutex
	runs  []Export
	index map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{index: map[string]int{}} }

// Record merges s into the run registered under label (creating it on
// first use), so repeated shots of the same scenario accumulate.
func (r *Registry) Record(label string, s Summary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.runLocked(label)
	r.runs[i].Summary = Merge(r.runs[i].Summary, s)
}

// RecordSeries attaches sampled timelines to the labeled run. Series with
// the same name concatenate chronologically.
func (r *Registry) RecordSeries(label string, series map[string][]Sample) {
	if len(series) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.runLocked(label)
	if r.runs[i].Series == nil {
		r.runs[i].Series = map[string][]Sample{}
	}
	for name, pts := range series {
		r.runs[i].Series[name] = append(r.runs[i].Series[name], pts...)
	}
}

func (r *Registry) runLocked(label string) int {
	if i, ok := r.index[label]; ok {
		return i
	}
	r.runs = append(r.runs, Export{Label: label})
	r.index[label] = len(r.runs) - 1
	return len(r.runs) - 1
}

// Export snapshots the registry contents.
func (r *Registry) Export() ExportFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := ExportFile{Schema: ExportSchema, Runs: make([]Export, len(r.runs))}
	copy(out.Runs, r.runs)
	return out
}

// Len reports the number of labeled runs recorded.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.runs)
}

// WriteJSON writes the registry as indented JSON (see ExportFile).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export())
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4). Each labeled run becomes a `run` label;
// histograms expose cumulative `le` buckets in seconds; sampled series
// surface as gauges holding their most recent value.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ex := r.Export()
	b := &strings.Builder{}

	counter := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	emitPerRun := func(name, help, kind string, value func(Export) (float64, bool)) {
		headed := false
		for _, run := range ex.Runs {
			v, ok := value(run)
			if !ok {
				continue
			}
			if !headed {
				if kind == "counter" {
					counter(name, help)
				} else {
					gauge(name, help)
				}
				headed = true
			}
			fmt.Fprintf(b, "%s{run=%q} %v\n", name, run.Label, v)
		}
	}

	type scalar struct {
		name, help, kind string
		get              func(Summary) float64
	}
	scalars := []scalar{
		{"score_checkpoint_bytes_total", "bytes checkpointed", "counter", func(s Summary) float64 { return float64(s.CheckpointBytes) }},
		{"score_checkpoint_blocked_seconds_total", "application time blocked in checkpoints", "counter", func(s Summary) float64 { return s.CheckpointBlocked.Seconds() }},
		{"score_checkpoint_ops_total", "checkpoint operations", "counter", func(s Summary) float64 { return float64(s.CheckpointOps) }},
		{"score_restore_bytes_total", "bytes restored", "counter", func(s Summary) float64 { return float64(s.RestoreBytes) }},
		{"score_restore_blocked_seconds_total", "application time blocked in restores", "counter", func(s Summary) float64 { return s.RestoreBlocked.Seconds() }},
		{"score_restore_ops_total", "restore operations", "counter", func(s Summary) float64 { return float64(s.RestoreOps) }},
		{"score_eviction_wait_seconds_total", "time blocked waiting for evictions", "counter", func(s Summary) float64 { return s.EvictionWait.Seconds() }},
		{"score_deviation_reads_total", "restores that deviated from the hint order", "counter", func(s Summary) float64 { return float64(s.DeviationReads) }},
		{"score_fallback_reads_total", "reads served from a deeper tier after a faster one failed", "counter", func(s Summary) float64 { return float64(s.FallbackReads) }},
		{"score_repopulations_total", "replicas re-staged after fallback reads", "counter", func(s Summary) float64 { return float64(s.Repopulations) }},
		{"score_flush_aborts_total", "flush chains abandoned", "counter", func(s Summary) float64 { return float64(s.FlushAborts) }},
		{"score_sync_flushes_total", "checkpoints flushed synchronously", "counter", func(s Summary) float64 { return float64(s.SyncFlushes) }},
		{"score_pipelined_streams_total", "chunked multi-hop transfer streams", "counter", func(s Summary) float64 { return float64(s.PipelinedStreams) }},
		{"score_pipelined_bytes_total", "bytes moved by pipelined streams", "counter", func(s Summary) float64 { return float64(s.PipelinedBytes) }},
		{"score_pipeline_overlap_seconds_total", "transfer time hidden by chunk overlap", "counter", func(s Summary) float64 { return s.PipelineOverlap().Seconds() }},
		{"score_accepted_bytes_total", "bytes accepted into the flush pipeline", "counter", func(s Summary) float64 { return float64(s.AcceptedBytes) }},
		{"score_durable_bytes_total", "accepted bytes that reached a durable tier", "counter", func(s Summary) float64 { return float64(s.DurableBytes) }},
		{"score_discarded_bytes_total", "accepted bytes discarded before flushing (consumed first)", "counter", func(s Summary) float64 { return float64(s.DiscardedBytes) }},
		{"score_lost_bytes_total", "accepted bytes whose flush chain was abandoned", "counter", func(s Summary) float64 { return float64(s.LostBytes) }},
		{"score_pending_flush_bytes", "accepted bytes with undecided fate", "gauge", func(s Summary) float64 { return float64(s.PendingFlushBytes()) }},
		{"score_retry_bouts_recovered_total", "retried I/O sequences that eventually succeeded", "counter", func(s Summary) float64 { return float64(s.RetryBoutsRecovered) }},
		{"score_retry_bouts_exhausted_total", "retried I/O sequences that exhausted their attempts", "counter", func(s Summary) float64 { return float64(s.RetryBoutsExhausted) }},
		{"score_partner_copies_total", "replicas staged on the partner node's SSD", "counter", func(s Summary) float64 { return float64(s.PartnerCopies) }},
		{"score_partner_copy_bytes_total", "bytes replicated to partner SSDs", "counter", func(s Summary) float64 { return float64(s.PartnerCopyBytes) }},
		{"score_partner_copy_failures_total", "partner replication attempts that failed", "counter", func(s Summary) float64 { return float64(s.PartnerCopyFailures) }},
		{"score_rank_deaths_total", "ranks killed by fault injection", "counter", func(s Summary) float64 { return float64(s.RankDeaths) }},
		{"score_slo_alerts_fired_total", "SLO burn-rate alerts fired", "counter", func(s Summary) float64 { return float64(s.SLOAlertsFired) }},
		{"score_slo_alerts_resolved_total", "SLO burn-rate alerts resolved", "counter", func(s Summary) float64 { return float64(s.SLOAlertsResolved) }},
		{"score_trace_events_dropped_total", "trace spans evicted by the bounded ring", "counter", func(s Summary) float64 { return float64(s.TraceEventsDropped) }},
		{"score_trace_counters_dropped_total", "sampler counter samples that fell out of the trace export's counter window", "counter", func(s Summary) float64 { return float64(s.TraceCountersDropped) }},
		{"score_ledger_events_dropped_total", "flight-recorder ledger events evicted by the per-rank rings", "counter", func(s Summary) float64 { return float64(s.LedgerEventsDropped) }},
	}
	for _, sc := range scalars {
		sc := sc
		emitPerRun(sc.name, sc.help, sc.kind, func(run Export) (float64, bool) {
			return sc.get(run.Summary), true
		})
	}

	// Per-tier counters.
	counter("score_retries_total", "retried I/O attempts by tier")
	for _, run := range ex.Runs {
		for _, tier := range sortedKeys(run.Summary.Retries) {
			fmt.Fprintf(b, "score_retries_total{run=%q,tier=%q} %d\n", run.Label, tier, run.Summary.Retries[tier])
		}
	}
	counter("score_degradations_total", "tiers marked degraded")
	for _, run := range ex.Runs {
		for _, tier := range sortedKeys(run.Summary.Degradations) {
			fmt.Fprintf(b, "score_degradations_total{run=%q,tier=%q} %d\n", run.Label, tier, run.Summary.Degradations[tier])
		}
	}
	counter("score_tier_recoveries_total", "degraded tiers healed by recovery probes")
	for _, run := range ex.Runs {
		for _, tier := range sortedKeys(run.Summary.TierRecoveries) {
			fmt.Fprintf(b, "score_tier_recoveries_total{run=%q,tier=%q} %d\n", run.Label, tier, run.Summary.TierRecoveries[tier])
		}
	}

	// Histograms.
	histNames := map[string]bool{}
	for _, run := range ex.Runs {
		for name := range run.Summary.Histograms {
			histNames[name] = true
		}
	}
	for _, name := range sortedBoolKeys(histNames) {
		metric := "score_" + name + "_seconds"
		fmt.Fprintf(b, "# HELP %s %s latency\n# TYPE %s histogram\n", metric, name, metric)
		for _, run := range ex.Runs {
			h, ok := run.Summary.Histograms[name]
			if !ok {
				continue
			}
			var cum int64
			for i, c := range h.Counts {
				cum += c
				le := "+Inf"
				if i < len(h.Bounds) {
					le = formatSeconds(h.Bounds[i])
				}
				fmt.Fprintf(b, "%s_bucket{run=%q,le=%q} %d\n", metric, run.Label, le, cum)
			}
			fmt.Fprintf(b, "%s_sum{run=%q} %v\n", metric, run.Label, h.Sum.Seconds())
			fmt.Fprintf(b, "%s_count{run=%q} %d\n", metric, run.Label, h.Count)
		}
	}

	// Sampled series: the latest value of each timeline.
	anySeries := false
	for _, run := range ex.Runs {
		if len(run.Series) > 0 {
			anySeries = true
		}
	}
	if anySeries {
		gauge("score_sample", "most recent value of a sampled series")
		for _, run := range ex.Runs {
			for _, name := range sortedSeriesKeys(run.Series) {
				pts := run.Series[name]
				if len(pts) == 0 {
					continue
				}
				fmt.Fprintf(b, "score_sample{run=%q,series=%q} %v\n", run.Label, name, pts[len(pts)-1].Value)
			}
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedBoolKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedSeriesKeys(m map[string][]Sample) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
