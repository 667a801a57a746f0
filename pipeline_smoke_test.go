package score_test

import (
	"flag"
	"testing"
	"time"

	"score/internal/experiments"
	"score/internal/report"
	"score/internal/rtm"
)

// benchOut, when set, makes the smoke test write its measurements as a
// bench-record JSON file (make bench-smoke passes BENCH_pipeline.json).
var benchOut = flag.String("bench.out", "", "write pipeline bench records to this JSON file")

// TestChunkedPipelineSmoke is the `make bench-smoke` gate: one run of the
// chunked-vs-monolithic ablation on the GPUDirect shot. Chunked transfer
// pipelining must not regress below the monolithic baseline on any
// headline metric — it overlaps the PCIe and NVMe hops of every flush and
// promotion, so it should strictly help here.
func TestChunkedPipelineSmoke(t *testing.T) {
	wall := map[int64]time.Duration{}
	shot := func(chunk int64) experiments.ShotResult {
		cfg := experiments.ShotConfig{
			Uniform: true, WaitForFlush: true, Order: rtm.Reverse,
			Combo:     experiments.Combo{Approach: experiments.Score, Hints: experiments.AllHints},
			GPUDirect: true,
		}
		benchRun().Apply(&cfg)
		cfg.ChunkSize = chunk
		start := time.Now()
		res, err := experiments.RunShot(cfg)
		wall[chunk] = time.Since(start)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		return res
	}
	mono := shot(0)
	chunked := shot(benchRun().UniformSize / 8)

	if c, m := chunked.MeanCheckpointThroughput(), mono.MeanCheckpointThroughput(); c < m {
		t.Errorf("chunked checkpoint throughput %.1f MB/s regressed below monolithic %.1f MB/s",
			c/mb, m/mb)
	}
	if c, m := chunked.MeanRestoreThroughput(), mono.MeanRestoreThroughput(); c < m {
		t.Errorf("chunked restore throughput %.1f MB/s regressed below monolithic %.1f MB/s",
			c/mb, m/mb)
	}
	if c, m := chunked.TotalIOWait(), mono.TotalIOWait(); c > m {
		t.Errorf("chunked io-wait %v regressed above monolithic %v", c, m)
	}

	if *benchOut != "" {
		monoRec := benchRecord("pipeline/monolithic", mono)
		chunkedRec := benchRecord("pipeline/chunked", chunked)
		if ops := mono.MergedSummary().CheckpointOps; ops > 0 {
			monoRec.WallNsPerOp = float64(wall[0].Nanoseconds()) / float64(ops)
		}
		if ops := chunked.MergedSummary().CheckpointOps; ops > 0 {
			chunkedRec.WallNsPerOp = float64(wall[benchRun().UniformSize/8].Nanoseconds()) / float64(ops)
		}
		records := []report.BenchRecord{monoRec, chunkedRec}
		if err := report.BenchFile.WriteFile(*benchOut, records); err != nil {
			t.Fatalf("writing %s: %v", *benchOut, err)
		}
		t.Logf("wrote %d bench records to %s", len(records), *benchOut)
	}
}

// benchRecord condenses one shot into the bench-record schema: simulated
// nanoseconds per checkpoint, total payload through the pipeline, and the
// fraction of hop busy time hidden by chunk overlap.
func benchRecord(name string, res experiments.ShotResult) report.BenchRecord {
	sum := res.MergedSummary()
	rec := report.BenchRecord{
		Name:       name,
		BytesMoved: sum.CheckpointBytes + sum.RestoreBytes,
	}
	if sum.CheckpointOps > 0 {
		rec.NsPerOp = float64(res.Duration.Nanoseconds()) / float64(sum.CheckpointOps)
	}
	if sum.PipelinedHopBusy > 0 {
		rec.OverlapRatio = sum.PipelineOverlap().Seconds() / sum.PipelinedHopBusy.Seconds()
	}
	return rec
}
