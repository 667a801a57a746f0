package report

import (
	"strings"

	"score/internal/metrics"
)

// This file declares the machine-readable artifacts the benchmarks
// emit besides critical paths and SLO reports: the metrics registry's
// JSON export (metrics.json in a ckptbench -out bundle), the bench records (make
// bench-smoke) and the simulator-speed records.

// MetricsFile is the score-metrics/v1 format: the metrics registry's
// runs (metrics.Registry.Runs), written by ckptbench -out as metrics.json
// and read back by tools and tests.
var MetricsFile = Schema[metrics.Export]{Tag: "score-metrics/v1", Key: "runs"}

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

// SimSpeedFile is the score-simspeed/v1 format (TestSimSpeedSmoke's
// child-process records and their committed baseline), written in name
// order.
var SimSpeedFile = Schema[SimSpeedRecord]{Tag: "score-simspeed/v1", Key: "records",
	Order: func(a, b SimSpeedRecord) int { return strings.Compare(a.Name, b.Name) }}
