package score_test

import (
	"testing"

	"score/internal/experiments"
	"score/internal/simclock"
)

// TestChunkedPipelineSmoke is the `make bench-smoke` gate: one run of the
// chunked-vs-monolithic ablation on the GPUDirect shot. Chunked transfer
// pipelining must not regress below the monolithic baseline on any
// headline metric — it overlaps the PCIe and NVMe hops of every flush and
// promotion, so it should strictly help here. Nor may it cost the engine
// wakeups: a stream resumes its caller once however many chunks it cuts,
// so the chunked shot resumes tasks (simclock.EventCount) exactly as
// often at 1/8 and at 1/32 of a snapshot per chunk, and no more often
// than the monolithic shot, whose two-hop flushes resume their caller
// once per hop.
func TestChunkedPipelineSmoke(t *testing.T) {
	shot := func(chunk int64) (experiments.ShotResult, uint64) {
		before := simclock.EventCount()
		res, err := experiments.RunShot(directShot(true, chunk))
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		return res, simclock.EventCount() - before
	}
	mono, monoWakes := shot(0)
	chunked, chunkedWakes := shot(benchRun().UniformSize / 8)
	_, fineWakes := shot(benchRun().UniformSize / 32)
	t.Logf("engine wakeups: monolithic %d, chunk 1/8 %d, chunk 1/32 %d", monoWakes, chunkedWakes, fineWakes)

	if chunkedWakes != fineWakes || chunkedWakes > monoWakes {
		t.Errorf("engine wakeups: chunk 1/8 %d, 1/32 %d, monolithic %d; want the chunked two equal and no more than monolithic",
			chunkedWakes, fineWakes, monoWakes)
	}

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
