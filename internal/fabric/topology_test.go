package fabric

import (
	"testing"
	"time"

	"score/internal/simclock"
)

func TestDGXA100Defaults(t *testing.T) {
	cfg := DGXA100()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.GPUs != 8 {
		t.Errorf("GPUs = %d, want 8", cfg.GPUs)
	}
	if cfg.GPUsPerPCIe != 2 {
		t.Errorf("GPUsPerPCIe = %d, want 2", cfg.GPUsPerPCIe)
	}
}

func TestNewClusterTopologyShape(t *testing.T) {
	clk := simclock.NewVirtual()
	c, err := NewCluster(clk, 4, DGXA100())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(c.Nodes))
	}
	n := c.Nodes[0]
	if len(n.D2D) != 8 {
		t.Errorf("D2D links = %d, want 8", len(n.D2D))
	}
	if len(n.PCIe) != 4 {
		t.Errorf("PCIe links = %d, want 4 (pairs of GPUs)", len(n.PCIe))
	}
	// All nodes share one PFS link.
	for i, node := range c.Nodes {
		if node.PFS != c.PFS {
			t.Errorf("node %d has a different PFS link", i)
		}
	}
	// GPUs 0 and 1 share a PCIe link; 0 and 2 do not.
	_, p0 := n.GPULinks(0)
	_, p1 := n.GPULinks(1)
	_, p2 := n.GPULinks(2)
	if p0 != p1 {
		t.Error("GPUs 0 and 1 should share a PCIe link")
	}
	if p0 == p2 {
		t.Error("GPUs 0 and 2 should not share a PCIe link")
	}
	// D2D links are private.
	d0, _ := n.GPULinks(0)
	d1, _ := n.GPULinks(1)
	if d0 == d1 {
		t.Error("GPUs 0 and 1 should have private D2D links")
	}
}

func TestPCIeContentionBetweenPairedGPUs(t *testing.T) {
	// Two GPUs flushing simultaneously over a shared PCIe link get half
	// the bandwidth each; the paper calls this out for DGX-A100 (§5.1).
	clk := simclock.NewVirtual()
	cfg := DGXA100()
	cfg.LinkLatency = 0
	c, err := NewCluster(clk, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk.Run(func() {
		n := c.Nodes[0]
		_, p0 := n.GPULinks(0)
		_, p1 := n.GPULinks(1)
		wg := simclock.NewWaitGroup(clk)
		durs := make([]time.Duration, 2)
		links := []*Link{p0, p1}
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				durs[i] = mustTransfer(t, links[i], 25*GB)
			})
		}
		wg.Wait()
		// 25GB at 25GB/s alone = 1s; shared = 2s.
		for i, d := range durs {
			if want := 2 * time.Second; absDur(d-want) > 20*time.Millisecond {
				t.Errorf("GPU %d flush took %v, want ~%v", i, d, want)
			}
		}
	})
}

func TestClusterValidation(t *testing.T) {
	clk := simclock.NewVirtual()
	if _, err := NewCluster(clk, 0, DGXA100()); err == nil {
		t.Error("NewCluster(0 nodes) should fail")
	}
	bad := DGXA100()
	bad.GPUs = 0
	if _, err := NewCluster(clk, 1, bad); err == nil {
		t.Error("NewCluster with 0 GPUs should fail")
	}
	bad = DGXA100()
	bad.PCIeBandwidth = -1
	if _, err := NewCluster(clk, 1, bad); err == nil {
		t.Error("NewCluster with negative bandwidth should fail")
	}
	bad = DGXA100()
	bad.GPUsPerPCIe = 0
	if _, err := NewCluster(clk, 1, bad); err == nil {
		t.Error("NewCluster with GPUsPerPCIe=0 should fail")
	}
	bad = DGXA100()
	bad.NVMeDrives = 0
	if _, err := NewCluster(clk, 1, bad); err == nil {
		t.Error("NewCluster with 0 NVMe drives should fail")
	}
}

func TestGPULinksOutOfRangePanics(t *testing.T) {
	clk := simclock.NewVirtual()
	c, err := NewCluster(clk, 1, DGXA100())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("GPULinks(99) did not panic")
		}
	}()
	c.Nodes[0].GPULinks(99)
}
