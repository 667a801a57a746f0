package experiments

import (
	"fmt"
	"io"
	"time"

	"score/internal/metrics"
	"score/internal/report"
	"score/internal/rtm"
)

// The pipeline experiment compares monolithic and chunked multi-hop
// transfers (§4.3) on the drained-restore shot and decomposes each
// configuration's time-to-durable and restore blocking time into
// critical-path components. The breakdown is the experiment's point:
// chunking should shift durable time out of the serialized xfer-pcie +
// xfer-ssd pair into the combined overlapped stream, and the attributed
// components of every record telescope exactly to its total (asserted
// per rank by the metrics invariants before the result is returned).

// PipelineResult is the rendered experiment.
type PipelineResult struct {
	// Cases holds one shot per compared transfer configuration, labelled
	// "pipeline/mono" and "pipeline/chunked"; each one's Config.ChunkSize
	// is its streaming granularity (0 = monolithic).
	Cases []ShotResult
}

// Pipeline runs the drained-restore Score shot (all hints, uniform
// snapshots) monolithic and chunked and returns both cases with their
// critical-path attributions. The chunk size is 1/16 of the snapshot
// size, matching the bench-smoke pipelining configuration.
func Pipeline(run Run) (PipelineResult, error) {
	base := run.Shot()
	base.GPUsPerNode, base.Uniform, base.Order, base.WaitForFlush, base.Combo = 4, true, rtm.Reverse, true, Combo{Score, AllHints}
	var out PipelineResult
	for _, c := range []struct {
		label string
		chunk int64
	}{{"pipeline/mono", 0}, {"pipeline/chunked", run.UniformSize / 16}} {
		cfg := base
		cfg.ChunkSize, cfg.Label = c.chunk, c.label
		res, err := RunShot(cfg)
		if err != nil {
			return PipelineResult{}, fmt.Errorf("%s: %w", c.label, err)
		}
		out.Cases = append(out.Cases, res)
	}
	return out, nil
}

// CritPathRuns lists every case's attribution records for export.
func (r PipelineResult) CritPathRuns() []report.CritPathRun {
	out := make([]report.CritPathRun, 0, len(r.Cases))
	for _, c := range r.Cases {
		out = append(out, report.CritPathRun{Label: c.Label(), Records: c.MergedSummary().CritPaths})
	}
	return out
}

// Render prints the throughput comparison followed by the per-component
// critical-path breakdown of both cases.
func (r PipelineResult) Render(w io.Writer) error {
	tab := report.NewTable("Pipeline — monolithic vs chunked transfers (drained restore)",
		"configuration", "gpus", "ckpt", "restore", "io-wait", "mean time-to-durable")
	for _, c := range r.Cases {
		sum := c.MergedSummary()
		count, total, _ := sum.CritPathBreakdown(metrics.CritDurable)
		mean := time.Duration(0)
		if count > 0 {
			mean = total / time.Duration(count)
		}
		tab.AddRow(c.Label(), len(c.PerRank),
			metrics.FormatBytesPerSec(c.MeanCheckpointThroughput()),
			metrics.FormatBytesPerSec(c.MeanRestoreThroughput()),
			c.TotalIOWait().Round(time.Millisecond).String(),
			mean.Round(time.Microsecond).String())
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	return report.CritPathTable(r.CritPathRuns()).Render(w)
}
