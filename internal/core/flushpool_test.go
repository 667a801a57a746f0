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

// wakeCountingCond counts the waits on a flush pool's cond that returned.
type wakeCountingCond struct {
	simclock.Cond
	woke int
}

func (w *wakeCountingCond) Wait() { w.Cond.Wait(); w.woke++ }

// withParkedFlushers builds a client with two workers per flush pool, lets
// all four park, and hands fn the client and its pools' counting conds.
func withParkedFlushers(t *testing.T, fn func(clk *simclock.Virtual, c *Client, d2h, h2f *wakeCountingCond)) {
	t.Helper()
	prev := newClientHook
	defer func() { newClientHook = prev }()
	var d2h, h2f *wakeCountingCond
	newClientHook = func(c *Client) {
		if prev != nil {
			prev(c)
		}
		d2h, h2f = &wakeCountingCond{Cond: c.d2h.cond}, &wakeCountingCond{Cond: c.h2f.cond}
		c.d2h.cond, c.h2f.cond = d2h, h2f
	}
	run(t, func(clk *simclock.Virtual) {
		c := newRig(t, clk, func(p *Params) { p.FlushStreams = 2 }).client
		newClientHook = prev
		clk.Sleep(time.Millisecond)
		if d2h.woke != 0 || h2f.woke != 0 {
			t.Fatalf("idle workers woke: d2h %d, h2f %d", d2h.woke, h2f.woke)
		}
		fn(clk, c, d2h, h2f)
	})
}

// TestFlushPushWakesOneWorkerOfItsPool: a queued job wakes exactly one
// idle worker, and only in its own pool; the client's other state changes
// (the job's completion bumps the client cond) wake none.
func TestFlushPushWakesOneWorkerOfItsPool(t *testing.T) {
	withParkedFlushers(t, func(clk *simclock.Virtual, c *Client, d2h, h2f *wakeCountingCond) {
		defer c.Close()
		for i, pool := range []*flushPool{&c.d2h, &c.h2f} {
			pool.push(ID(100 + i)) // no such version: the worker pops it and finishes at once
			clk.Sleep(time.Millisecond)
			if want := []int{1, i}; d2h.woke != want[0] || h2f.woke != want[1] {
				t.Errorf("after push %d: woke d2h %d, h2f %d; want %v", i, d2h.woke, h2f.woke, want)
			}
		}
	})
}

// TestCloseAndKillReleaseParkedFlushWorkers: both pools' idle workers
// observe the client closing or dying, each woken once.
func TestCloseAndKillReleaseParkedFlushWorkers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(clk *simclock.Virtual, c *Client)
		finish  func(c *Client)
	}{
		{"close", func(_ *simclock.Virtual, c *Client) { c.Close() }, func(*Client) {}},
		// markKilled is Kill without the Close inside finishKill, so the
		// wakes counted are the kill's own.
		{"kill", func(clk *simclock.Virtual, c *Client) {
			if !c.markKilled() {
				t.Fatal("markKilled on a live client returned false")
			}
			clk.Sleep(time.Millisecond)
		}, (*Client).finishKill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withParkedFlushers(t, func(clk *simclock.Virtual, c *Client, d2h, h2f *wakeCountingCond) {
				tc.release(clk, c)
				if d2h.woke != 2 || h2f.woke != 2 {
					t.Errorf("woke d2h %d, h2f %d; want both workers of each pool", d2h.woke, h2f.woke)
				}
				tc.finish(c)
			})
		})
	}
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
// writers into flushDeep for one version.
func TestStageHandoffKeepsVersionWorkerOwned(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		c := newRig(t, clk, nil).client
		c.Close() // the pool's own workers exit; this test is the only popper
		c.closed = false
		c.ckpts[7] = &checkpoint{id: 7, size: MB}
		c.d2h.push(7)
		c.h2f.push(7)
		for _, pool := range []*flushPool{&c.d2h, &c.h2f} {
			if id, ok := c.popFlushJob(pool); !ok || id != 7 {
				t.Fatalf("popFlushJob = %d, %v", id, ok)
			}
		}
		c.finishFlushJob(7, &c.d2h)
		if cands, busy := c.drainSnapshot(); len(cands) != 0 || !busy {
			t.Errorf("after T_D2H finished, the triage sees %d candidates, busy=%v; T_H2F still owns the version", len(cands), busy)
		}
		c.finishFlushJob(7, &c.h2f)
		if cands, busy := c.drainSnapshot(); len(cands) != 1 || busy {
			t.Errorf("after both stages finished, the triage sees %d candidates, busy=%v", len(cands), busy)
		}
	})
}
