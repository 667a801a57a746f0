package score_test

import (
	"bytes"
	"testing"
	"time"

	"score"
)

func TestQuickstartRoundTrip(t *testing.T) {
	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		c, err := sim.NewClient(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		const n = 8
		data := make([][]byte, n)
		for v := int64(n - 1); v >= 0; v-- {
			c.PrefetchEnqueue(v)
		}
		for v := 0; v < n; v++ {
			data[v] = bytes.Repeat([]byte{byte(v + 1)}, 4096)
			if err := c.Checkpoint(int64(v), data[v]); err != nil {
				t.Fatal(err)
			}
			c.Compute(10 * time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		c.PrefetchStart()
		for v := n - 1; v >= 0; v-- {
			got, err := c.Restart(int64(v))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[v]) {
				t.Fatalf("version %d: data mismatch", v)
			}
			c.Compute(10 * time.Millisecond)
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.CheckpointOps != n || st.RestoreOps != n {
			t.Errorf("ops = %d/%d, want %d/%d", st.CheckpointOps, st.RestoreOps, n, n)
		}
		if st.CheckpointThroughput <= 0 || st.RestoreThroughput <= 0 {
			t.Error("throughputs should be positive")
		}
	})
}

func TestVirtualCheckpoints(t *testing.T) {
	sim, err := score.NewSim(score.WithGPUsPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		c, err := sim.NewClient(0, 1,
			score.WithGPUCache(64<<20),
			score.WithHostCache(256<<20),
			score.WithDiscardAfterRestore())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.PrefetchStart()
		for v := int64(0); v < 16; v++ {
			if err := c.CheckpointVirtual(v, 16<<20); err != nil {
				t.Fatal(err)
			}
		}
		if size, err := c.RestartSize(3); err != nil || size != 16<<20 {
			t.Errorf("RestartSize = %d, %v", size, err)
		}
		for v := int64(15); v >= 0; v-- {
			if _, err := c.Restart(v); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestMultiGPUContention(t *testing.T) {
	sim, err := score.NewSim(score.WithGPUsPerNode(4))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		clk := sim.Clock()
		wg := sim.NewWaitGroup()
		errs := make([]error, 4)
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				c, err := sim.NewClient(0, g,
					score.WithGPUCache(32<<20), score.WithHostCache(128<<20))
				if err != nil {
					errs[g] = err
					return
				}
				defer c.Close()
				for v := int64(0); v < 8; v++ {
					if err := c.CheckpointVirtual(v, 8<<20); err != nil {
						errs[g] = err
						return
					}
					clk.Sleep(time.Millisecond)
				}
				errs[g] = c.WaitFlush()
			})
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Errorf("gpu %d: %v", g, err)
			}
		}
	})
}

func TestSimOptionsValidation(t *testing.T) {
	if _, err := score.NewSim(score.WithNodes(0)); err == nil {
		t.Error("zero nodes accepted")
	}
	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Nodes() != 1 || sim.GPUsPerNode() != 8 {
		t.Errorf("defaults: %d nodes, %d GPUs", sim.Nodes(), sim.GPUsPerNode())
	}
	sim.Run(func() {
		if _, err := sim.NewClient(5, 0); err == nil {
			t.Error("out-of-range node accepted")
		}
		if _, err := sim.NewClient(0, 99); err == nil {
			t.Error("out-of-range GPU accepted")
		}
	})
}

// TestZeroCacheSizeIsAnError: a cache size is used as given, so a zero
// one fails NewClient rather than running at the paper's 4 GiB or 32 GiB.
func TestZeroCacheSizeIsAnError(t *testing.T) {
	sim, err := score.NewSim(score.WithGPUsPerNode(1))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		for name, opt := range map[string]score.ClientOption{
			"WithGPUCache(0)": score.WithGPUCache(0), "WithHostCache(0)": score.WithHostCache(0),
		} {
			if c, err := sim.NewClient(0, 0, opt); err == nil {
				c.Close()
				t.Errorf("NewClient accepted %s", name)
			}
		}
	})
}

func TestCustomBandwidths(t *testing.T) {
	sim, err := score.NewSim(
		score.WithGPUsPerNode(1),
		score.WithBandwidth(1.0/64),
	)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		c, err := sim.NewClient(0, 0,
			score.WithGPUCache(16<<20), score.WithHostCache(64<<20),
			score.WithPersistToPFS(), score.WithAsyncHostInit())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		start := sim.Clock().Now()
		if err := c.CheckpointVirtual(0, 8<<20); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if sim.Clock().Now() == start {
			t.Error("no simulated time passed for the flush chain")
		}
	})
}

func TestWithEvictionPolicy(t *testing.T) {
	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		c, err := sim.NewClient(0, 0, score.WithEvictionPolicy("arc"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		data := bytes.Repeat([]byte{0x5c}, 4096)
		if err := c.Checkpoint(1, data); err != nil {
			t.Fatal(err)
		}
		got, err := c.Restart(1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip under arc policy lost data")
		}
	})
	sim2, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run(func() {
		if _, err := sim2.NewClient(0, 0, score.WithEvictionPolicy("mru")); err == nil {
			t.Error("unknown eviction policy name accepted")
		}
	})
}

// TestSharedHostCachePinnedByNodeGPUs: a node's shared pool is pinned in
// parallel by its GPUs' processes, one chunk each. With two GPUs per node
// each process registers half the pool at the pinned-host rate (4 GiB/s),
// so no checkpoint lands on the host tier before pool/2 of registration.
func TestSharedHostCachePinnedByNodeGPUs(t *testing.T) {
	const (
		gpus = 2
		pool = 8 << 30
		// pool/gpus at device.DefaultAllocCosts' 4 GiB/s pinned rate.
		registration = time.Second
	)
	sim, err := score.NewSim(score.WithGPUsPerNode(gpus),
		score.WithSharedHostCache(pool), score.WithSampling(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		c, err := sim.NewClient(0, 0, score.WithGPUCache(64<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.CheckpointVirtual(0, 16<<20); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
	})
	landed := false
	for _, s := range sim.SampledSeries()["node0.gpu0.cache.host.used_bytes"] {
		if s.Value > 0 {
			landed = true
			if s.At < registration {
				t.Fatalf("host tier holds %v bytes at %v, before the %v registration of pool/%d",
					s.Value, s.At, registration, gpus)
			}
		}
	}
	if !landed {
		t.Fatal("the checkpoint never landed on the host tier")
	}
}

// TestWithSharedHostCache runs two clients of one node over a shared host
// pool smaller than their two private host caches would be. Each writes
// more than the pool's half, so the pool evicts across clients, and both
// must still restore every version bit-exact. The pool is observable in
// the sampled gauges: both clients report the same host-cache occupancy,
// and its peak exceeds everything either client wrote on its own.
func TestWithSharedHostCache(t *testing.T) {
	if _, err := score.NewSim(score.WithSharedHostCache(-1)); err == nil {
		t.Error("negative shared host cache size accepted")
	}

	const (
		clients  = 2
		versions = 8
		size     = 1 << 20
		private  = 16 << 20 // each client's WithHostCache, ignored under the pool
		pool     = 12 << 20 // < clients*private, < clients*versions*size
	)
	sim, err := score.NewSim(score.WithGPUsPerNode(clients),
		score.WithSharedHostCache(pool), score.WithSampling(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	payload := func(g int, v int64) []byte {
		return bytes.Repeat([]byte{byte(16*g) + byte(v) + 1}, size)
	}
	errs := make([]error, clients)
	sim.Run(func() {
		clk := sim.Clock()
		wg := sim.NewWaitGroup()
		for g := 0; g < clients; g++ {
			g := g
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				c, err := sim.NewClient(0, g, score.WithGPUCache(2*size), score.WithHostCache(private))
				if err != nil {
					errs[g] = err
					return
				}
				defer c.Close()
				for v := int64(0); v < versions; v++ {
					if err := c.Checkpoint(v, payload(g, v)); err != nil {
						errs[g] = err
						return
					}
					c.Compute(time.Millisecond)
				}
				if err := c.WaitFlush(); err != nil {
					errs[g] = err
					return
				}
				for v := int64(versions - 1); v >= 0; v-- {
					got, err := c.Restart(v)
					if err != nil {
						errs[g] = err
						return
					}
					if !bytes.Equal(got, payload(g, v)) {
						t.Errorf("gpu %d version %d: restored bytes differ", g, v)
					}
				}
			})
		}
		wg.Wait()
	})
	for g, err := range errs {
		if err != nil {
			t.Errorf("gpu %d: %v", g, err)
		}
	}

	series := sim.SampledSeries()
	gpu0, gpu1 := series["node0.gpu0.cache.host.used_bytes"], series["node0.gpu1.cache.host.used_bytes"]
	if len(gpu0) == 0 || len(gpu0) != len(gpu1) {
		t.Fatalf("host occupancy series lengths %d and %d", len(gpu0), len(gpu1))
	}
	var peak float64
	for i := range gpu0 {
		if gpu0[i] != gpu1[i] {
			t.Fatalf("sample %d: clients see host occupancy %v and %v; want one pool", i, gpu0[i], gpu1[i])
		}
		peak = max(peak, gpu0[i].Value)
	}
	if peak <= versions*size || peak > pool {
		t.Errorf("shared host occupancy peaked at %.0f bytes; want above one client's %d and at most the pool's %d",
			peak, versions*size, pool)
	}
}
