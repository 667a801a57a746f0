package score_test

import (
	"testing"

	"score/internal/experiments"
	"score/internal/rtm"
)

// TestChunkedPipelineSmoke is the `make bench-smoke` gate: one run of the
// chunked-vs-monolithic ablation on the GPUDirect shot. Chunked transfer
// pipelining must not regress below the monolithic baseline on any
// headline metric — it overlaps the PCIe and NVMe hops of every flush and
// promotion, so it should strictly help here.
func TestChunkedPipelineSmoke(t *testing.T) {
	shot := func(chunk int64) experiments.ShotResult {
		cfg := experiments.ShotConfig{
			Uniform: true, WaitForFlush: true, Order: rtm.Reverse,
			Combo:     experiments.Combo{Approach: experiments.Score, Hints: experiments.AllHints},
			GPUDirect: true,
		}
		benchRun().Apply(&cfg)
		cfg.ChunkSize = chunk
		res, err := experiments.RunShot(cfg)
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
}
