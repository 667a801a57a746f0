package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"score/internal/device"
	"score/internal/fabric"
	"score/internal/payload"
	"score/internal/simclock"
)

// TestConcurrentProducerConsumer exercises the full interleaving the
// unified life cycle exists for (§4.1.3): one task streams checkpoints
// while another concurrently consumes them in the order it hinted up
// front, so flushes and prefetches overlap on the same cache tiers
// throughout. Reads follow the hinted order exactly, so none deviates.
func TestConcurrentProducerConsumer(t *testing.T) {
	const n = 24
	sequential := make([]ID, n)
	for i := range sequential {
		sequential[i] = ID(i)
	}
	priority := make([]ID, n)
	for i, v := range rand.New(rand.NewSource(7)).Perm(n) {
		priority[i] = ID(v)
	}
	for _, tc := range []struct {
		name  string
		order []ID // the consumer's read order, hinted before the first write
		real  bool // real payloads, read back bit-exact
	}{
		{"sequential", sequential, false},
		{"seeded priority", priority, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(clk *simclock.Virtual) {
				r := newRig(t, clk, nil)
				defer r.client.Close()
				r.client.PrefetchStart()
				for _, id := range tc.order {
					r.client.PrefetchEnqueue(id)
				}

				data := make([][]byte, n)
				written := make([]atomic.Bool, n)
				wg := simclock.NewWaitGroup(clk)
				wg.Add(2)
				var prodErr, consErr error
				clk.Go(func() {
					defer wg.Done()
					for i := ID(0); i < n; i++ {
						var p payload.Payload = payload.NewVirtual(1 * MB)
						if tc.real {
							data[i] = make([]byte, 1*MB)
							rand.New(rand.NewSource(int64(i))).Read(data[i])
							p = payload.NewReal(data[i])
						}
						if err := r.client.Checkpoint(i, p); err != nil {
							prodErr = err
							return
						}
						written[i].Store(true)
						clk.Sleep(3 * time.Millisecond)
					}
				})
				clk.Go(func() {
					defer wg.Done()
					for _, id := range tc.order {
						for !written[id].Load() {
							clk.Sleep(time.Millisecond)
						}
						got, err := r.client.Restore(id)
						if err != nil {
							consErr = err
							return
						}
						if tc.real && !bytes.Equal(got.Bytes(), data[id]) {
							consErr = fmt.Errorf("version %d restored with different bytes", id)
							return
						}
						clk.Sleep(4 * time.Millisecond)
					}
				})
				wg.Wait()
				if prodErr != nil {
					t.Fatalf("producer: %v", prodErr)
				}
				if consErr != nil {
					t.Fatalf("consumer: %v", consErr)
				}
				if err := r.client.Err(); err != nil {
					t.Fatal(err)
				}
				sum := r.client.Metrics().Snapshot()
				if sum.CheckpointOps != n || sum.RestoreOps != n {
					t.Errorf("ops = %d/%d, want %d/%d", sum.CheckpointOps, sum.RestoreOps, n, n)
				}
				if sum.DeviationReads != 0 {
					t.Errorf("%d reads deviated from the hinted order, want 0", sum.DeviationReads)
				}
			})
		})
	}
}

// TestTwoClientsShareNodeLinks runs two clients whose flush chains
// contend on the same PCIe pair and NVMe link.
func TestTwoClientsShareNodeLinks(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		d2d2, pcie2 := r.cluster.Nodes[0].GPULinks(1)
		dev2 := newSecondGPU(clk, d2d2, pcie2)
		c2, err := New(Params{
			Clock: clk, GPU: dev2, NVMe: r.cluster.Nodes[0].NVMe, PFS: r.cluster.PFS,
			GPUCacheSize: 4 * MB, HostCacheSize: 16 * MB,
			AsyncHostInit: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()

		wg := simclock.NewWaitGroup(clk)
		errs := make([]error, 2)
		for idx, cl := range []*Client{r.client, c2} {
			idx, cl := idx, cl
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				for i := ID(0); i < 8; i++ {
					if err := cl.Checkpoint(i, payload.NewVirtual(1*MB)); err != nil {
						errs[idx] = err
						return
					}
				}
				errs[idx] = cl.WaitFlush()
			})
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}
		// Both clients' data must be fully flushed despite contention.
		for _, cl := range []*Client{r.client, c2} {
			for id, ck := range cl.ckpts {
				if !ck.dataOn(TierSSD) {
					t.Errorf("checkpoint %d not on SSD", id)
				}
			}
		}
	})
}

// TestRestoreDuringActiveFlushBacklog reads the oldest checkpoint while
// the flush queue is still deep — the promotion path must coexist with
// in-flight flushes of other checkpoints.
func TestRestoreDuringActiveFlushBacklog(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		for i := ID(0); i < 10; i++ {
			if err := r.client.Checkpoint(i, payload.NewVirtual(1*MB)); err != nil {
				t.Fatal(err)
			}
		}
		// No WaitFlush: the D2H/H2F queues are still draining.
		for i := ID(0); i < 10; i++ {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatalf("restore %d mid-backlog: %v", i, err)
			}
		}
		if err := r.client.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// newSecondGPU builds a GPU on the given links for multi-client tests.
func newSecondGPU(clk *simclock.Virtual, d2d, pcie *fabric.Link) *device.GPU {
	return device.NewGPU(clk, 1, 64*MB, d2d, pcie, device.AllocCosts{
		DeviceBytesPerSec:     1000 * MB,
		PinnedHostBytesPerSec: 400 * MB,
	})
}

// TestConcurrentRestoresOfOneVersion has two tasks restore the same
// version at the same instant, once while it is GPU-resident from its
// checkpoint and once after the prefetcher promoted it back
// (READ_COMPLETE). The second reader's claim lands during the first's
// copy-out and shares it; both must consume the replica without an
// illegal CONSUMED → CONSUMED transition and return the bytes.
func TestConcurrentRestoresOfOneVersion(t *testing.T) {
	data := bytes.Repeat([]byte{0x5a}, 1*MB)
	for _, tc := range []struct {
		name     string
		evictors ID // checkpoints written after version 0, pushing it off the GPU
	}{
		{"gpu-resident", 0},
		{"prefetched", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(clk *simclock.Virtual) {
				r := newRig(t, clk, nil)
				defer r.client.Close()
				if err := r.client.Checkpoint(0, payload.NewReal(data)); err != nil {
					t.Fatal(err)
				}
				for i := ID(1); i <= tc.evictors; i++ {
					if err := r.client.Checkpoint(i, pay(1*MB)); err != nil {
						t.Fatal(err)
					}
				}
				if tc.evictors > 0 {
					if err := r.client.WaitFlush(); err != nil {
						t.Fatal(err)
					}
					if r.client.ckpts[0].dataOn(TierGPU) {
						t.Fatal("version 0 still on the GPU after the evicting checkpoints")
					}
					r.client.PrefetchEnqueue(0)
					r.client.PrefetchStart()
					for i := 0; !r.client.ckpts[0].dataOn(TierGPU); i++ {
						if i == 1000 {
							t.Fatal("version 0 not prefetched back to the GPU within 1 s")
						}
						clk.Sleep(time.Millisecond)
					}
				}
				wg := simclock.NewWaitGroup(clk)
				errs := make([]error, 2)
				for i := range errs {
					wg.Add(1)
					clk.Go(func() {
						defer wg.Done()
						got, err := r.client.Restore(0)
						switch {
						case err != nil:
							errs[i] = err
						case !bytes.Equal(got.Bytes(), data):
							errs[i] = errors.New("restored different bytes")
						}
					})
				}
				wg.Wait()
				for i, err := range errs {
					if err != nil {
						t.Errorf("reader %d: %v", i, err)
					}
				}
				if got := r.client.Metrics().Snapshot().RestoreOps; got != 2 {
					t.Errorf("RestoreOps = %d, want 2", got)
				}
			})
		})
	}
}
