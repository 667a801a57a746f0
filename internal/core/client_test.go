package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"score/internal/device"
	"score/internal/fabric"
	"score/internal/payload"
	"score/internal/simclock"
)

const MB = 1 << 20

// testRig wires one client onto a one-node cluster with configurable
// cache sizes. Bandwidths mirror the DGX-A100 shape but stay exact for
// assertions: D2D 1000 MB/ms is replaced by round numbers.
type testRig struct {
	clk     *simclock.Virtual
	cluster *fabric.Cluster
	gpu     *device.GPU
	client  *Client
}

func newRig(t *testing.T, clk *simclock.Virtual, mutate func(*Params)) *testRig {
	t.Helper()
	cfg := fabric.NodeConfig{
		GPUs:          2,
		D2DBandwidth:  1000 * MB, // 1000 MB/s → 1ms per MB... scaled small
		PCIeBandwidth: 100 * MB,
		GPUsPerPCIe:   2,
		NVMeDrives:    1,
		NVMePerDrive:  25 * MB,
		PFSBandwidth:  10 * MB,
		LinkLatency:   0,
	}
	cluster, err := fabric.NewCluster(clk, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2d, pcie := cluster.Nodes[0].GPULinks(0)
	gpu := device.NewGPU(clk, 0, 64*MB, d2d, pcie, device.AllocCosts{
		DeviceBytesPerSec:     1000 * MB,
		PinnedHostBytesPerSec: 400 * MB,
	})
	p := Params{
		Clock:               clk,
		GPU:                 gpu,
		NVMe:                cluster.Nodes[0].NVMe,
		PFS:                 cluster.PFS,
		GPUCacheSize:        4 * MB,
		HostCacheSize:       16 * MB,
		DiscardAfterRestore: false,
		AsyncHostInit:       false, // charge init upfront: deterministic tests
	}
	if mutate != nil {
		mutate(&p)
	}
	client, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{clk: clk, cluster: cluster, gpu: gpu, client: client}
}

func run(t *testing.T, fn func(clk *simclock.Virtual)) {
	t.Helper()
	clk := simclock.NewVirtual()
	clk.Run(func() { fn(clk) })
}

func pay(size int64) payload.Payload { return payload.NewVirtual(size) }

func TestCheckpointRestoreRoundTripRealData(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		data := make([]byte, 256)
		for i := range data {
			data[i] = byte(i * 7)
		}
		in := payload.NewReal(data)
		if err := r.client.Checkpoint(0, in); err != nil {
			t.Fatal(err)
		}
		out, err := r.client.Restore(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := payload.Verify(in, out.Bytes()); err != nil {
			t.Errorf("restored payload corrupt: %v", err)
		}
	})
}

func TestCheckpointBlocksOnlyForGPUCopy(t *testing.T) {
	// §2 condition 1: the application blocks only for the copy into the
	// GPU cache (D2D at 1000 MB/s), not the PCIe flush (100 MB/s).
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		start := clk.Now()
		if err := r.client.Checkpoint(0, pay(2*MB)); err != nil {
			t.Fatal(err)
		}
		blocked := clk.Now() - start
		d2dTime := 2 * time.Millisecond   // 2MB at 1000MB/s
		pcieTime := 20 * time.Millisecond // 2MB at 100MB/s
		if blocked > d2dTime*3/2 {
			t.Errorf("checkpoint blocked %v; want ~%v (D2D only, flush is async)", blocked, d2dTime)
		}
		if blocked >= pcieTime {
			t.Errorf("checkpoint blocked %v >= PCIe flush time %v: flush not asynchronous", blocked, pcieTime)
		}
	})
}

func TestReadAfterWriteWhileFlushPending(t *testing.T) {
	// §2 condition 2: a process may read back a checkpoint even if its
	// asynchronous flushes are still pending.
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		if err := r.client.Checkpoint(0, pay(2*MB)); err != nil {
			t.Fatal(err)
		}
		// Immediately restore: the flush (20ms PCIe + 80ms NVMe) cannot
		// have finished.
		start := clk.Now()
		if _, err := r.client.Restore(0); err != nil {
			t.Fatal(err)
		}
		blocked := clk.Now() - start
		if blocked > 5*time.Millisecond {
			t.Errorf("read-after-write blocked %v; want ~2ms (served from GPU cache)", blocked)
		}
	})
}

func TestWaitFlushDrainsChainToSSD(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		for i := ID(0); i < 4; i++ {
			if err := r.client.Checkpoint(i, pay(1*MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		for i := ID(0); i < 4; i++ {
			ck := r.client.ckpts[i]
			if !ck.dataOn(TierSSD) {
				t.Errorf("checkpoint %d not on SSD after WaitFlush", i)
			}
		}
	})
}

func TestEvictionCascadeBeyondGPUCache(t *testing.T) {
	// 12 checkpoints of 1MB through a 4MB GPU cache and 16MB host
	// cache: all writes must succeed, and every checkpoint must remain
	// restorable from some tier.
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		for i := ID(0); i < 12; i++ {
			if err := r.client.Checkpoint(i, pay(1*MB)); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
			r.gpu.Compute(time.Millisecond)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		gpuRes, _ := r.client.Resident()
		if gpuRes > 4 {
			t.Errorf("GPU cache holds %d checkpoints, capacity is 4", gpuRes)
		}
		for i := ID(11); i >= 0; i-- {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatalf("restore %d: %v", i, err)
			}
		}
		if err := r.client.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPrefetchingImprovesReverseRestore(t *testing.T) {
	// The Listing 1 pattern: hints for reverse order, forward pass,
	// PrefetchStart, backward pass. Compare restore blocking with and
	// without hints: hints must strictly reduce total blocked time.
	const n = 12
	runShot := func(hints bool) time.Duration {
		var blocked time.Duration
		clk := simclock.NewVirtual()
		clk.Run(func() {
			r := newRig(t, clk, nil)
			defer r.client.Close()
			if hints {
				for i := n - 1; i >= 0; i-- {
					r.client.PrefetchEnqueue(ID(i))
				}
			}
			for i := ID(0); i < n; i++ {
				if err := r.client.Checkpoint(i, pay(1*MB)); err != nil {
					t.Fatal(err)
				}
				r.gpu.Compute(time.Millisecond)
			}
			if err := r.client.WaitFlush(); err != nil {
				t.Fatal(err)
			}
			r.client.PrefetchStart()
			for i := ID(n - 1); i >= 0; i-- {
				start := clk.Now()
				if _, err := r.client.Restore(i); err != nil {
					t.Fatal(err)
				}
				blocked += clk.Now() - start
				r.gpu.Compute(5 * time.Millisecond) // compute window for prefetch
			}
			if err := r.client.Err(); err != nil {
				t.Fatal(err)
			}
		})
		return blocked
	}
	withHints := runShot(true)
	withoutHints := runShot(false)
	if withHints >= withoutHints {
		t.Errorf("hinted restore blocked %v, unhinted %v: prefetching should help", withHints, withoutHints)
	}
}

func TestPrefetchGatedUntilStart(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		for i := ID(0); i < 8; i++ {
			r.client.PrefetchEnqueue(i)
		}
		for i := ID(0); i < 8; i++ {
			if err := r.client.Checkpoint(i, pay(1*MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		// Checkpoints 0..3 were evicted from the GPU (4MB cache);
		// without PrefetchStart they must stay off the GPU.
		clk.Sleep(time.Second)
		early := r.client.ckpts[0].dataOn(TierGPU)
		if early {
			t.Error("checkpoint 0 promoted to GPU before PrefetchStart")
		}
		r.client.PrefetchStart()
		clk.Sleep(time.Second)
		after := r.client.ckpts[0].dataOn(TierGPU)
		if !after {
			t.Error("checkpoint 0 not prefetched after PrefetchStart")
		}
	})
}

func TestPrefetchedPinnedUntilConsumed(t *testing.T) {
	// §2 condition 4: once prefetched to the GPU cache, a checkpoint is
	// only evictable after consumption. Fill the cache with prefetched
	// checkpoints, then write a new one: the write must wait for (or
	// avoid) the pinned entries.
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		for i := ID(0); i < 8; i++ {
			r.client.PrefetchEnqueue(i)
		}
		for i := ID(0); i < 8; i++ {
			if err := r.client.Checkpoint(i, pay(1*MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		r.client.PrefetchStart()
		clk.Sleep(2 * time.Second) // prefetcher fills the 4MB GPU cache
		pinned := 0
		for i := ID(0); i < 8; i++ {
			if r.client.ckpts[i].dataOn(TierGPU) && !r.client.ckpts[i].consumed {
				pinned++
			}
		}
		if pinned == 0 {
			t.Fatal("no prefetched checkpoints on the GPU; test premise broken")
		}
		// Consume them in hint order; prefetcher should keep the cache
		// warm and every restore should be near-instant from the GPU.
		for i := ID(0); i < 8; i++ {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatal(err)
			}
			r.gpu.Compute(5 * time.Millisecond)
		}
		sum := r.client.Metrics().Snapshot()
		if got := sum.RestoreOps; got != 8 {
			t.Fatalf("restore ops = %d, want 8", got)
		}
	})
}

func TestDeviatingReadServedAndCounted(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		for i := ID(0); i < 6; i++ {
			r.client.PrefetchEnqueue(i)
		}
		for i := ID(0); i < 6; i++ {
			if err := r.client.Checkpoint(i, pay(1*MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		r.client.PrefetchStart()
		clk.Sleep(time.Second)
		// Deviate: read 5 first even though the hints say 0 is next.
		if _, err := r.client.Restore(5); err != nil {
			t.Fatalf("deviating restore: %v", err)
		}
		sum := r.client.Metrics().Snapshot()
		if sum.DeviationReads != 1 {
			t.Errorf("deviation reads = %d, want 1", sum.DeviationReads)
		}
		// The rest still restore fine in hint order.
		for i := ID(0); i < 5; i++ {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDiscardCancelsPendingFlushes(t *testing.T) {
	// §2 condition 5: consumed+discardable checkpoints need not finish
	// their flushes. Restore immediately after writing (flush still in
	// the queue) and verify no SSD replica is ever materialized.
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.DiscardAfterRestore = true })
		defer r.client.Close()
		if err := r.client.Checkpoint(0, pay(1*MB)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.client.Restore(0); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		onSSD := r.client.ckpts[0].dataOn(TierSSD)
		if onSSD {
			t.Error("discarded checkpoint was flushed to SSD anyway")
		}
	})
}

func TestAPIErrors(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		if err := r.client.Checkpoint(0, pay(MB)); err != nil {
			t.Fatal(err)
		}
		if err := r.client.Checkpoint(0, pay(MB)); !errors.Is(err, ErrDuplicateCheckpoint) {
			t.Errorf("duplicate checkpoint: err = %v, want ErrDuplicateCheckpoint", err)
		}
		if err := r.client.Checkpoint(-1, pay(MB)); err == nil {
			t.Error("negative id accepted")
		}
		if _, err := r.client.Restore(42); !errors.Is(err, ErrUnknownCheckpoint) {
			t.Errorf("unknown restore: err = %v, want ErrUnknownCheckpoint", err)
		}
		if size, err := r.client.RestoreSize(0); err != nil || size != MB {
			t.Errorf("RestoreSize = %d, %v; want %d, nil", size, err, MB)
		}
		if _, err := r.client.RestoreSize(42); !errors.Is(err, ErrUnknownCheckpoint) {
			t.Errorf("unknown RestoreSize: err = %v", err)
		}
		r.client.Close()
		if err := r.client.Checkpoint(1, pay(MB)); !errors.Is(err, ErrClosed) {
			t.Errorf("checkpoint after close: err = %v, want ErrClosed", err)
		}
		if _, err := r.client.Restore(0); !errors.Is(err, ErrClosed) {
			t.Errorf("restore after close: err = %v, want ErrClosed", err)
		}
		r.client.Close() // idempotent
	})
}

func TestParamsValidation(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		if _, err := New(Params{}); err == nil {
			t.Error("empty params accepted")
		}
		cfg := fabric.DGXA100()
		cluster, err := fabric.NewCluster(clk, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d2d, pcie := cluster.Nodes[0].GPULinks(0)
		gpu := device.NewGPU(clk, 0, 40*fabric.GB, d2d, pcie, device.DefaultAllocCosts())
		if _, err := New(Params{Clock: clk, GPU: gpu}); err == nil {
			t.Error("missing NVMe accepted")
		}
		if _, err := New(Params{Clock: clk, GPU: gpu, NVMe: cluster.Nodes[0].NVMe,
			PersistToPFS: true}); err == nil {
			t.Error("PersistToPFS without PFS link accepted")
		}
		if _, err := New(Params{Clock: clk, GPU: gpu, NVMe: cluster.Nodes[0].NVMe,
			GPUCacheSize: -1}); err == nil {
			t.Error("negative cache size accepted")
		}
	})
}

func TestPersistToPFSCreatesPFSReplica(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.PersistToPFS = true })
		defer r.client.Close()
		if err := r.client.Checkpoint(0, pay(1*MB)); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		onPFS := r.client.ckpts[0].dataOn(TierPFS)
		if !onPFS {
			t.Error("checkpoint not persisted to PFS")
		}
	})
}

func TestAsyncHostInitDelaysFlushes(t *testing.T) {
	// With async init, the 16MB host cache registers at 400 MB/s →
	// ready at t=40ms; the first flush cannot complete before that.
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.AsyncHostInit = true })
		defer r.client.Close()
		if err := r.client.Checkpoint(0, pay(1*MB)); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if now := clk.Now(); now < 40*time.Millisecond {
			t.Errorf("flush chain drained at %v, before host cache ready (40ms)", now)
		}
	})
}

func TestPrefetchDistanceGrowsWithAllHints(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		const n = 8
		for i := n - 1; i >= 0; i-- {
			r.client.PrefetchEnqueue(ID(i))
		}
		for i := ID(0); i < n; i++ {
			if err := r.client.Checkpoint(i, pay(512*1024)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		r.client.PrefetchStart()
		clk.Sleep(2 * time.Second)
		for i := ID(n - 1); i >= 0; i-- {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatal(err)
			}
			r.gpu.Compute(10 * time.Millisecond)
		}
		sum := r.client.Metrics().Snapshot()
		if mean := sum.MeanPrefetchDistance(); mean < 1 {
			t.Errorf("mean prefetch distance = %.2f, want >= 1 with full hints and 8-slot cache", mean)
		}
	})
}

func TestRandomRestoreOrderProperty(t *testing.T) {
	// Property: for any predetermined irregular restore order (full
	// hints), every restore returns the exact payload written, and no
	// asynchronous error occurs.
	for trial := 0; trial < 5; trial++ {
		seed := int64(trial*2654435761 + 12345)
		rng := rand.New(rand.NewSource(seed))
		const n = 16
		order := rng.Perm(n)
		clk := simclock.NewVirtual()
		clk.Run(func() {
			r := newRig(t, clk, nil)
			defer r.client.Close()
			payloads := make([]payload.Payload, n)
			for _, idx := range order {
				r.client.PrefetchEnqueue(ID(idx))
			}
			for i := 0; i < n; i++ {
				data := make([]byte, 64+rng.Intn(1024))
				rng.Read(data)
				payloads[i] = payload.NewReal(data)
				// Pad the simulated size so evictions happen.
				if err := r.client.Checkpoint(ID(i), payloads[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.client.WaitFlush(); err != nil {
				t.Fatal(err)
			}
			r.client.PrefetchStart()
			for _, idx := range order {
				got, err := r.client.Restore(ID(idx))
				if err != nil {
					t.Fatalf("seed %d: restore %d: %v", seed, idx, err)
				}
				if got.Checksum() != payloads[idx].Checksum() {
					t.Fatalf("seed %d: restore %d returned wrong payload", seed, idx)
				}
				r.gpu.Compute(time.Millisecond)
			}
			if err := r.client.Err(); err != nil {
				t.Fatalf("seed %d: async error: %v", seed, err)
			}
		})
	}
}

func TestMetricsThroughputAccounting(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		if err := r.client.Checkpoint(0, pay(2*MB)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.client.Restore(0); err != nil {
			t.Fatal(err)
		}
		sum := r.client.Metrics().Snapshot()
		if sum.CheckpointBytes != 2*MB || sum.RestoreBytes != 2*MB {
			t.Errorf("bytes = %d/%d, want 2MB/2MB", sum.CheckpointBytes, sum.RestoreBytes)
		}
		// 2MB at 1000MB/s D2D = 2ms blocking each way → ~1000MB/s
		// application-observed throughput.
		ckptTp := sum.CheckpointThroughput()
		if ckptTp < 500*MB || ckptTp > 1500*MB {
			t.Errorf("checkpoint throughput = %s, want ~1000 MB/s",
				fmt.Sprintf("%.0f MB/s", ckptTp/MB))
		}
	})
}

// TestCacheNameAllocatesOnce: a cache name costs one allocation, the
// string itself, also for a job rank above 255, whose GPU ID fmt would
// box as well.
func TestCacheNameAllocatesOnce(t *testing.T) {
	var name string
	if n := testing.AllocsPerRun(100, func() { name = cacheName(511, "hostcache") }); n != 1 {
		t.Errorf("cacheName allocates %v times, want 1", n)
	}
	if name != "gpu511-hostcache" {
		t.Errorf("cacheName(511, %q) = %q, want gpu511-hostcache", "hostcache", name)
	}
}
