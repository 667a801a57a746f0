package core

import (
	"bytes"
	"testing"
	"time"

	"score/internal/device"
	"score/internal/payload"
	"score/internal/simclock"
)

// sharedRig builds two clients on one node sharing a host cache pool.
func sharedRig(t *testing.T, clk *simclock.Virtual, poolSize int64) (*testRig, *Client, *SharedHostCache) {
	t.Helper()
	shared := NewSharedHostCache(clk, "node0-sharedhost", poolSize, 8)
	r, c2 := sharedRigOn(t, clk, shared, nil)
	return r, c2, shared
}

// sharedRigOn puts the two clients of sharedRig on an existing pool, with
// mutate applied to both clients' parameters.
func sharedRigOn(t *testing.T, clk *simclock.Virtual, shared *SharedHostCache, mutate func(*Params)) (*testRig, *Client) {
	t.Helper()
	r := newRig(t, clk, func(p *Params) {
		p.SharedHost = shared
		if mutate != nil {
			mutate(p)
		}
	})
	d2d2, pcie2 := r.cluster.Nodes[0].GPULinks(1)
	dev2 := device.NewGPU(clk, 1, 64*MB, d2d2, pcie2, device.AllocCosts{
		DeviceBytesPerSec: 1000 * MB, PinnedHostBytesPerSec: 400 * MB,
	})
	p2 := Params{
		Clock: clk, GPU: dev2, NVMe: r.cluster.Nodes[0].NVMe, PFS: r.cluster.PFS,
		GPUCacheSize: 4 * MB, HostCacheSize: 16 * MB, SharedHost: shared,
	}
	if mutate != nil {
		mutate(&p2)
	}
	c2, err := New(p2)
	if err != nil {
		t.Fatal(err)
	}
	return r, c2
}

func TestSharedHostCacheNamespacesClients(t *testing.T) {
	// Both clients use the SAME version numbers; the shared pool must
	// keep their replicas distinct and restores must return each
	// client's own data.
	run(t, func(clk *simclock.Virtual) {
		r, c2, shared := sharedRig(t, clk, 16*MB)
		defer shared.Close()
		defer c2.Close()
		defer r.client.Close()

		dataA := bytes.Repeat([]byte{0xAA}, 4096)
		dataB := bytes.Repeat([]byte{0xBB}, 4096)
		if err := r.client.Checkpoint(0, payload.NewReal(dataA)); err != nil {
			t.Fatal(err)
		}
		if err := c2.Checkpoint(0, payload.NewReal(dataB)); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if err := c2.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if shared.Resident() != 2 {
			t.Errorf("shared pool holds %d replicas, want 2 (one per client)", shared.Resident())
		}
		outA, err := r.client.Restore(0)
		if err != nil {
			t.Fatal(err)
		}
		outB, err := c2.Restore(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(outA.Bytes(), dataA) || !bytes.Equal(outB.Bytes(), dataB) {
			t.Error("shared-cache namespacing mixed up the clients' data")
		}
	})
}

func TestSharedHostCacheLoadBalancesVariableSizes(t *testing.T) {
	// The future-work motivation: a 16MB pool serves a client writing
	// 12MB of large checkpoints next to one writing 2MB of small ones.
	// With private 8MB halves the big client would thrash; shared, both
	// histories stay host-resident simultaneously.
	run(t, func(clk *simclock.Virtual) {
		r, c2, shared := sharedRig(t, clk, 16*MB)
		defer shared.Close()
		defer c2.Close()
		defer r.client.Close()

		for i := ID(0); i < 4; i++ { // 12MB of 3MB checkpoints
			if err := r.client.Checkpoint(i, payload.NewVirtual(3*MB)); err != nil {
				t.Fatal(err)
			}
		}
		for i := ID(0); i < 4; i++ { // 2MB of 512KB checkpoints
			if err := c2.Checkpoint(i, payload.NewVirtual(512<<10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if err := c2.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		// 12 + 2 = 14MB <= 16MB: everything can be host-resident at
		// once, which private 8MB halves could not hold for client A.
		if got := shared.Resident(); got != 8 {
			t.Errorf("shared pool holds %d replicas, want all 8", got)
		}
		for i := ID(3); i >= 0; i-- {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatal(err)
			}
			if _, err := c2.Restore(i); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestSharedHostCacheEvictionCrossesClients(t *testing.T) {
	// Overcommit the pool: client A's flushed history must be evictable
	// to make room for client B's flushes (cross-namespace eviction).
	run(t, func(clk *simclock.Virtual) {
		r, c2, shared := sharedRig(t, clk, 8*MB)
		defer shared.Close()
		defer c2.Close()
		defer r.client.Close()

		for i := ID(0); i < 8; i++ {
			if err := r.client.Checkpoint(i, payload.NewVirtual(1*MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		for i := ID(0); i < 8; i++ {
			if err := c2.Checkpoint(i, payload.NewVirtual(1*MB)); err != nil {
				t.Fatal(err)
			}
			clk.Sleep(time.Millisecond)
		}
		if err := c2.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		// Every checkpoint of both clients must still be restorable
		// (from SSD where evicted).
		for i := ID(7); i >= 0; i-- {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatalf("client A restore %d: %v", i, err)
			}
			if _, err := c2.Restore(i); err != nil {
				t.Fatalf("client B restore %d: %v", i, err)
			}
		}
		if err := r.client.Err(); err != nil {
			t.Fatal(err)
		}
		if err := c2.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSharedHostCacheCloseOrder(t *testing.T) {
	// Closing one client must not break the other's use of the pool.
	run(t, func(clk *simclock.Virtual) {
		r, c2, shared := sharedRig(t, clk, 16*MB)
		defer shared.Close()
		if err := c2.Checkpoint(0, payload.NewVirtual(1*MB)); err != nil {
			t.Fatal(err)
		}
		if err := c2.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		c2.Close() // first client leaves

		if err := r.client.Checkpoint(0, payload.NewVirtual(1*MB)); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.client.Restore(0); err != nil {
			t.Fatal(err)
		}
		r.client.Close()
	})
}
