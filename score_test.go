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
			score.WithDiscardAfterRestore(),
			score.WithAutoPrefetch())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
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
	if _, err := score.NewSim(score.WithHBM(-1)); err == nil {
		t.Error("negative HBM accepted")
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

func TestCustomBandwidths(t *testing.T) {
	sim, err := score.NewSim(
		score.WithGPUsPerNode(1),
		score.WithNodeBandwidths(1<<34, 1<<32, 1<<31, 1<<30),
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
		c, err := sim.NewClient(0, 0, score.WithEvictionPolicy("lru-k"))
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
			t.Fatal("round trip under lru-k policy lost data")
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
