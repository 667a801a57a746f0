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

// PipelineCase is one compared transfer configuration.
type PipelineCase struct {
	// Name identifies the case ("pipeline/mono" or "pipeline/chunked").
	Name string
	// ChunkSize is the streaming granularity (0 = monolithic).
	ChunkSize int64
	// Result is the full shot outcome, per-rank summaries included.
	Result ShotResult
}

// Merged is the cross-rank summary (attribution records included).
func (c PipelineCase) Merged() metrics.Summary { return c.Result.MergedSummary() }

// CritPathRun packages the case's attribution records under its name
// for the score-critpath/v1 export.
func (c PipelineCase) CritPathRun() report.CritPathRun {
	return report.CritPathRun{Label: c.Name, Records: c.Merged().CritPaths}
}

// PipelineResult is the rendered experiment.
type PipelineResult struct {
	Cases []PipelineCase
}

// Pipeline runs the drained-restore Score shot (all hints, uniform
// snapshots) monolithic and chunked and returns both cases with their
// critical-path attributions. The chunk size is 1/16 of the snapshot
// size, matching the bench-smoke pipelining configuration.
func Pipeline(run Run) (PipelineResult, error) {
	base := ShotConfig{
		GPUsPerNode:  4,
		Uniform:      true,
		Order:        rtm.Reverse,
		WaitForFlush: true,
		Combo:        Combo{Score, AllHints},
	}
	run.Apply(&base)

	cases := []PipelineCase{
		{Name: "pipeline/mono"}, // ChunkSize 0: monolithic
		{Name: "pipeline/chunked", ChunkSize: run.UniformSize / 16},
	}
	for i := range cases {
		cfg := base
		cfg.ChunkSize = cases[i].ChunkSize
		cfg.Label = cases[i].Name
		res, err := RunShot(cfg)
		if err != nil {
			return PipelineResult{}, fmt.Errorf("%s: %w", cases[i].Name, err)
		}
		cases[i].Result = res
	}
	return PipelineResult{Cases: cases}, nil
}

// CritPathRuns lists every case's attribution records for export.
func (r PipelineResult) CritPathRuns() []report.CritPathRun {
	out := make([]report.CritPathRun, 0, len(r.Cases))
	for _, c := range r.Cases {
		out = append(out, c.CritPathRun())
	}
	return out
}

// Render prints the throughput comparison followed by the per-component
// critical-path breakdown of both cases.
func (r PipelineResult) Render(w io.Writer) error {
	tab := report.NewTable("Pipeline — monolithic vs chunked transfers (drained restore)",
		"configuration", "gpus", "ckpt", "restore", "io-wait", "mean time-to-durable")
	for _, c := range r.Cases {
		sum := c.Merged()
		count, total, _ := sum.CritPathBreakdown(metrics.CritDurable)
		mean := time.Duration(0)
		if count > 0 {
			mean = total / time.Duration(count)
		}
		tab.AddRow(c.Name, len(c.Result.PerRank),
			metrics.FormatBytesPerSec(c.Result.MeanCheckpointThroughput()),
			metrics.FormatBytesPerSec(c.Result.MeanRestoreThroughput()),
			c.Result.TotalIOWait().Round(time.Millisecond).String(),
			mean.Round(time.Microsecond).String())
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	return report.CritPathTable(r.CritPathRuns()).Render(w)
}
