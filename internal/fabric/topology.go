package fabric

import (
	"fmt"
	"time"

	"score/internal/simclock"
)

// NodeConfig describes the interconnect characteristics of one compute
// node. The defaults (DGXA100) follow the paper's ThetaGPU description
// (§5.1): eight A100 GPUs, 1 TB/s device-to-device, 25 GB/s PCIe Gen4
// shared by pairs of GPUs, four NVMe drives at 4 GB/s each, and a Lustre
// parallel file system shared by all nodes.
type NodeConfig struct {
	// GPUs is the number of GPUs (and processes) per node.
	GPUs int
	// D2DBandwidth is the per-GPU device-to-device copy bandwidth in
	// bytes per second (HBM/NVSwitch path).
	D2DBandwidth float64
	// PCIeBandwidth is the bandwidth of one PCIe link in bytes/second.
	PCIeBandwidth float64
	// GPUsPerPCIe is how many GPUs share one PCIe link (2 on DGX-A100).
	GPUsPerPCIe int
	// NVMeDrives and NVMePerDrive describe node-local SSD bandwidth.
	NVMeDrives   int
	NVMePerDrive float64
	// PFSBandwidth is the per-node share of parallel file system
	// bandwidth in bytes/second.
	PFSBandwidth float64
	// NICBandwidth is the per-node inter-node fabric bandwidth in
	// bytes/second (HDR InfiniBand class on the paper's platform), used
	// by partner-copy replication. 0 takes the DGX-A100 default so
	// pre-existing configurations that only set the four local
	// bandwidths keep working.
	NICBandwidth float64
	// LinkLatency is the fixed per-transfer latency applied to host and
	// storage links (device-to-device latency is negligible).
	LinkLatency time.Duration
}

// DGXA100 returns the paper's evaluation platform configuration.
func DGXA100() NodeConfig {
	return NodeConfig{
		GPUs:          8,
		D2DBandwidth:  1000 * GB, // ~1 TB/s HBM2e
		PCIeBandwidth: 25 * GB,   // pinned D2H/H2D, PCIe Gen4
		GPUsPerPCIe:   2,
		NVMeDrives:    4,
		NVMePerDrive:  4 * GB,
		PFSBandwidth:  10 * GB,
		NICBandwidth:  25 * GB, // HDR-class inter-node fabric
		LinkLatency:   10 * time.Microsecond,
	}
}

// Validate reports whether the configuration is usable.
func (c NodeConfig) Validate() error {
	switch {
	case c.GPUs < 1:
		return fmt.Errorf("fabric: node needs at least one GPU, got %d", c.GPUs)
	case c.D2DBandwidth <= 0 || c.PCIeBandwidth <= 0 || c.NVMePerDrive <= 0 || c.PFSBandwidth <= 0:
		return fmt.Errorf("fabric: all bandwidths must be positive")
	case c.NICBandwidth < 0:
		return fmt.Errorf("fabric: NICBandwidth must be >= 0 (0 means default)")
	case c.GPUsPerPCIe < 1:
		return fmt.Errorf("fabric: GPUsPerPCIe must be >= 1, got %d", c.GPUsPerPCIe)
	case c.NVMeDrives < 1:
		return fmt.Errorf("fabric: need at least one NVMe drive, got %d", c.NVMeDrives)
	}
	return nil
}

// Node is the set of links of one compute node. GPU i uses D2D[i] for
// device-local copies and PCIe[i/GPUsPerPCIe] to reach host memory. All
// GPUs on the node share the NVMe link; all nodes share the PFS link.
type Node struct {
	cfg  NodeConfig
	D2D  []*Link
	PCIe []*Link
	NVMe *Link
	NIC  *Link // inter-node fabric endpoint (partner-copy traffic)
	PFS  *Link // shared across nodes; owned by the Cluster
}

// Cluster wires up N identical nodes that share one parallel file system.
type Cluster struct {
	Nodes []*Node
	PFS   *Link
}

// NewCluster builds a cluster of n nodes with the given per-node
// configuration on clk.
func NewCluster(clk *simclock.Virtual, n int, cfg NodeConfig) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("fabric: cluster needs at least one node, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pfs := NewLink(clk, "pfs", cfg.PFSBandwidth*float64(n), cfg.LinkLatency)
	c := &Cluster{PFS: pfs}
	for i := 0; i < n; i++ {
		node := &Node{cfg: cfg, PFS: pfs}
		for g := 0; g < cfg.GPUs; g++ {
			node.D2D = append(node.D2D, NewLink(clk,
				fmt.Sprintf("node%d.gpu%d.d2d", i, g), cfg.D2DBandwidth, 0))
		}
		pcieLinks := (cfg.GPUs + cfg.GPUsPerPCIe - 1) / cfg.GPUsPerPCIe
		for p := 0; p < pcieLinks; p++ {
			node.PCIe = append(node.PCIe, NewLink(clk,
				fmt.Sprintf("node%d.pcie%d", i, p), cfg.PCIeBandwidth, cfg.LinkLatency))
		}
		node.NVMe = NewLink(clk, fmt.Sprintf("node%d.nvme", i),
			float64(cfg.NVMeDrives)*cfg.NVMePerDrive, cfg.LinkLatency)
		nic := cfg.NICBandwidth
		if nic <= 0 {
			nic = DGXA100().NICBandwidth
		}
		node.NIC = NewLink(clk, fmt.Sprintf("node%d.nic", i), nic, cfg.LinkLatency)
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// Config returns the node's configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// GPULinks returns the links GPU g of this node uses: its private D2D
// link and its (possibly shared) PCIe link.
func (n *Node) GPULinks(g int) (d2d, pcie *Link) {
	if g < 0 || g >= len(n.D2D) {
		panic(fmt.Sprintf("fabric: GPU index %d out of range [0,%d)", g, len(n.D2D)))
	}
	return n.D2D[g], n.PCIe[g/n.cfg.GPUsPerPCIe]
}
