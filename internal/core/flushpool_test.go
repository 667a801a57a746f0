package core

import (
	"sync"
	"testing"
	"time"

	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/simclock"
)

// TestFlushStreamsResolution: the worker-pool width defaults to the seed's
// single flusher when transfers are monolithic, and to the GPU's copy-
// engine count when chunking is enabled.
func TestFlushStreamsResolution(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		if r.client.flushStreams != 1 {
			t.Errorf("monolithic flushStreams = %d, want 1 (seed behavior)", r.client.flushStreams)
		}
	})
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.ChunkSize = 256 << 10 })
		defer r.client.Close()
		if want := r.gpu.CopyEngines(); r.client.flushStreams != want {
			t.Errorf("chunked flushStreams = %d, want copy-engine count %d", r.client.flushStreams, want)
		}
	})
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.FlushStreams = 3 })
		defer r.client.Close()
		if r.client.flushStreams != 3 {
			t.Errorf("explicit flushStreams = %d, want 3", r.client.flushStreams)
		}
	})
}

// TestFlushPoolDrainsAllCheckpoints: with three workers per stage every
// checkpoint still reaches the SSD tier and WaitFlush drains cleanly.
func TestFlushPoolDrainsAllCheckpoints(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.FlushStreams = 3 })
		defer r.client.Close()
		const n = 6
		for i := 0; i < n; i++ {
			if err := r.client.Checkpoint(ID(i), pay(MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		r.client.mu.Lock()
		defer r.client.mu.Unlock()
		for i := 0; i < n; i++ {
			ck := r.client.ckpts[ID(i)]
			rep := ck.replicas[TierSSD]
			if rep == nil || rep.fsm.State() != lifecycle.Flushed {
				t.Errorf("checkpoint %d not durable on SSD after WaitFlush", i)
			}
		}
	})
}

// TestFlushPoolPerCheckpointOrdering: even with three concurrent workers
// per stage, a checkpoint's D2H copy must start before its own H2F write —
// the pool parallelizes across checkpoints, never within one. Distinct
// sizes identify which checkpoint each link-level transfer belongs to.
func TestFlushPoolPerCheckpointOrdering(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		var mu sync.Mutex
		pcieStart := map[int64]time.Duration{}
		nvmeStart := map[int64]time.Duration{}
		r := newRig(t, clk, func(p *Params) { p.FlushStreams = 3 })
		defer r.client.Close()
		_, pcie := r.cluster.Nodes[0].GPULinks(0)
		pcie.SetInterceptor(func(_ string, size int64) fabric.FaultDecision {
			mu.Lock()
			if _, seen := pcieStart[size]; !seen {
				pcieStart[size] = clk.Now()
			}
			mu.Unlock()
			return fabric.FaultDecision{}
		})
		r.cluster.Nodes[0].NVMe.SetInterceptor(func(_ string, size int64) fabric.FaultDecision {
			mu.Lock()
			if _, seen := nvmeStart[size]; !seen {
				nvmeStart[size] = clk.Now()
			}
			mu.Unlock()
			return fabric.FaultDecision{}
		})
		const n = 5
		for i := 0; i < n; i++ {
			size := int64(i+1) * 128 << 10 // distinct per checkpoint
			if err := r.client.Checkpoint(ID(i), pay(size)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			size := int64(i+1) * 128 << 10
			d2h, ok1 := pcieStart[size]
			h2f, ok2 := nvmeStart[size]
			if !ok1 || !ok2 {
				t.Fatalf("checkpoint %d missing a stage (pcie=%v nvme=%v)", i, ok1, ok2)
			}
			if h2f < d2h {
				t.Errorf("checkpoint %d: H2F started at %v before its D2H at %v", i, h2f, d2h)
			}
		}
	})
}

// TestFlushPoolSkipsConsumed: §2 condition 5 with a multi-worker pool —
// a checkpoint consumed (restored) while its flush is still queued must
// not be written to the SSD.
func TestFlushPoolSkipsConsumed(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		var mu sync.Mutex
		nvmeSizes := map[int64]bool{}
		r := newRig(t, clk, func(p *Params) {
			p.FlushStreams = 3
			p.DiscardAfterRestore = true
		})
		defer r.client.Close()
		r.cluster.Nodes[0].NVMe.SetInterceptor(func(_ string, size int64) fabric.FaultDecision {
			mu.Lock()
			nvmeSizes[size] = true
			mu.Unlock()
			return fabric.FaultDecision{}
		})
		const consumedSize = 768 << 10
		if err := r.client.Checkpoint(0, pay(consumedSize)); err != nil {
			t.Fatal(err)
		}
		if err := r.client.Checkpoint(1, pay(MB)); err != nil {
			t.Fatal(err)
		}
		// Consume checkpoint 0 from its GPU replica while the flush
		// pipeline is still busy (PCIe alone needs ~7.5ms; we are at
		// ~1.75ms after the two D2D copies).
		if _, err := r.client.Restore(0); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if nvmeSizes[consumedSize] {
			t.Error("consumed+discardable checkpoint was still written to the SSD")
		}
		if !nvmeSizes[MB] {
			t.Error("unconsumed checkpoint never reached the SSD")
		}
	})
}

// TestFlushPoolAbortWithMultipleWorkers: when every durable route is dead,
// each worker's flush aborts fail-open — no replica wedged in-flight, the
// GPU copies stay restorable, and WaitFlush still drains.
func TestFlushPoolAbortWithMultipleWorkers(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.FlushStreams = 3 })
		defer r.client.Close()
		r.cluster.Nodes[0].NVMe.SetInterceptor(deadLink("nvme outage"))
		r.cluster.PFS.SetInterceptor(deadLink("pfs outage"))
		const n = 3
		for i := 0; i < n; i++ {
			if err := r.client.Checkpoint(ID(i), pay(MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatalf("WaitFlush must drain despite the outage: %v", err)
		}
		r.client.mu.Lock()
		for i := 0; i < n; i++ {
			ck := r.client.ckpts[ID(i)]
			if !ck.flushAborted {
				t.Errorf("checkpoint %d not marked flush-aborted", i)
			}
			for tier, rep := range ck.replicas {
				if rep == nil {
					continue
				}
				switch st := rep.fsm.State(); st {
				case lifecycle.WriteInProgress, lifecycle.ReadInProgress:
					t.Errorf("checkpoint %d tier %v replica stuck in-flight (%v)", i, Tier(tier), st)
				}
			}
		}
		r.client.mu.Unlock()
		for i := 0; i < n; i++ {
			if _, err := r.client.Restore(ID(i)); err != nil {
				t.Errorf("restore %d from surviving GPU copy: %v", i, err)
			}
		}
		if s := r.client.Metrics().Snapshot(); s.FlushAborts < n {
			t.Errorf("FlushAborts = %d, want >= %d", s.FlushAborts, n)
		}
	})
}

// TestFlushPoolCloseJoinsWorkers: Close must join every pool worker (a
// leaked worker would block daemons.Wait forever) and stay idempotent.
func TestFlushPoolCloseJoinsWorkers(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.FlushStreams = 4 })
		for i := 0; i < 3; i++ {
			if err := r.client.Checkpoint(ID(i), pay(MB)); err != nil {
				t.Fatal(err)
			}
		}
		r.client.Close()
		r.client.Close() // idempotent
	})
}

// TestChunkedFlushBeatsMonolithic: end-to-end through the client, chunked
// pipelining must shorten a GPUDirect flush (PCIe + NVMe, both hops
// overlapped) compared to the monolithic seed path.
func TestChunkedFlushBeatsMonolithic(t *testing.T) {
	flushTime := func(chunk int64) time.Duration {
		var d time.Duration
		run(t, func(clk *simclock.Virtual) {
			r := newRig(t, clk, func(p *Params) {
				p.GPUDirectStorage = true
				p.ChunkSize = chunk
			})
			defer r.client.Close()
			start := clk.Now()
			if err := r.client.Checkpoint(0, pay(2*MB)); err != nil {
				t.Fatal(err)
			}
			if err := r.client.WaitFlush(); err != nil {
				t.Fatal(err)
			}
			d = clk.Now() - start
		})
		return d
	}
	mono := flushTime(0)
	chunked := flushTime(256 << 10)
	if chunked >= mono {
		t.Errorf("chunked GPUDirect flush took %v, monolithic %v; want chunked faster", chunked, mono)
	}
}

// TestStageHandoffKeepsVersionWorkerOwned: T_D2H pushes a version to the
// H2F queue before finishing its own job, so a T_H2F worker can own the
// version by the time T_D2H lets go. The drain triage reads ownership to
// decide which versions it may flush itself; losing it here sent two
// writers into directToSSD for one version.
func TestStageHandoffKeepsVersionWorkerOwned(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		c := newRig(t, clk, nil).client
		c.Close() // the pool's own workers exit; this test is the only popper
		c.mu.Lock()
		c.closed = false
		c.ckpts[7] = &checkpoint{id: 7, size: MB}
		c.d2hQ.push(7)
		c.h2fQ.push(7)
		c.mu.Unlock()
		for _, stage := range []struct {
			q    *idFIFO
			busy *int
		}{{&c.d2hQ, &c.d2hBusy}, {&c.h2fQ, &c.h2fBusy}} {
			if id, ok := c.popFlushJob(stage.q, stage.busy); !ok || id != 7 {
				t.Fatalf("popFlushJob = %d, %v", id, ok)
			}
		}
		c.finishFlushJob(7, &c.d2hBusy)
		if cands, busy := c.drainSnapshot(); len(cands) != 0 || !busy {
			t.Errorf("after T_D2H finished, the triage sees %d candidates, busy=%v; T_H2F still owns the version", len(cands), busy)
		}
		c.finishFlushJob(7, &c.h2fBusy)
		if cands, busy := c.drainSnapshot(); len(cands) != 1 || busy {
			t.Errorf("after both stages finished, the triage sees %d candidates, busy=%v", len(cands), busy)
		}
	})
}
