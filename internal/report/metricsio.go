package report

import (
	"strings"

	"score/internal/metrics"
)

// This file declares the machine-readable artifacts the benchmarks
// emit besides critical paths and SLO reports: the metrics registry's
// JSON export (ckptbench -metrics-out), the bench records (make
// bench-smoke) and the simulator-speed records.

// MetricsFile is the score-metrics/v1 format metrics.Registry.WriteJSON
// writes; it is read here so tools and tests can round-trip it.
var MetricsFile = Schema[metrics.Export]{Tag: metrics.ExportSchema, Key: "runs"}

// MetricsTable renders one summary row per run of an export — a quick
// human-readable view of a -metrics-out file.
func MetricsTable(runs []metrics.Export) *Table {
	tab := NewTable("Metrics export — per-run summaries",
		"run", "ckpt bytes", "restore bytes", "retries", "degradations", "pending")
	for _, run := range runs {
		s := run.Summary
		tab.AddRow(run.Label, s.CheckpointBytes, s.RestoreBytes,
			s.TotalRetries(), s.TotalDegradations(), s.PendingFlushBytes())
	}
	return tab
}

// BenchRecord is one benchmark measurement from the bench-smoke run.
type BenchRecord struct {
	// Name identifies the benchmark case (e.g. "pipeline/chunked").
	Name string `json:"name"`
	// NsPerOp is the simulated nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// WallNsPerOp is the real (host) nanoseconds the case took per
	// operation — the simulator-speed trajectory, distinct from the
	// simulated time above (which must stay bit-identical across engine
	// optimizations). Zero in records written before it was tracked.
	WallNsPerOp float64 `json:"wall_ns_per_op,omitempty"`
	// BytesMoved is the total payload the case pushed through the
	// fabric.
	BytesMoved int64 `json:"bytes_moved"`
	// OverlapRatio is hidden transfer time over summed hop busy time
	// (0 = store-and-forward, approaching 1 with deep pipelines).
	OverlapRatio float64 `json:"overlap_ratio"`
	// HitRate is the cache hit fraction [0,1] for cache-policy cases
	// (the eviction ablation matrix); omitted elsewhere.
	HitRate float64 `json:"hit_rate,omitempty"`
}

// BenchFile is the score-bench/v1 format, written in name order.
var BenchFile = Schema[BenchRecord]{Tag: "score-bench/v1", Key: "records",
	Order: func(a, b BenchRecord) int { return strings.Compare(a.Name, b.Name) }}

// SimSpeedRecord is one simulator-speed measurement: how fast the
// discrete-event engine itself retires model events, and what one
// operation costs in allocations. See DESIGN.md §14 for why the gated
// throughput counts model events rather than engine wakeups.
type SimSpeedRecord struct {
	// Name identifies the case (e.g. "sweep/10k-serial").
	Name string `json:"name"`
	// EventsPerSec is model events retired per wall second (the gated
	// headline).
	EventsPerSec float64 `json:"events_per_sec"`
	// WakeupsPerSec is engine wakeups per wall second (diagnostic).
	WakeupsPerSec float64 `json:"wakeups_per_sec,omitempty"`
	// AllocsPerOp is heap allocations per operation (one whole sweep).
	AllocsPerOp int64 `json:"allocs_per_op"`
	// WallNsPerOp is real nanoseconds per operation.
	WallNsPerOp float64 `json:"wall_ns_per_op,omitempty"`
}

// SimSpeedFile is the score-simspeed/v1 format (BENCH_simspeed.json
// and its committed baseline), written in name order.
var SimSpeedFile = Schema[SimSpeedRecord]{Tag: "score-simspeed/v1", Key: "records",
	Order: func(a, b SimSpeedRecord) int { return strings.Compare(a.Name, b.Name) }}
