// Package testbed builds the simulated hardware every shot runs on: the
// paper's DGX A100 nodes (§5.1) on one virtual clock, their GPUs keyed by
// job rank, per-node shared host pools, and the tracer and gauge sampler
// that observe them. The experiment runner and score.Sim both build here.
package testbed

import (
	"fmt"
	"time"

	"score/internal/core"
	"score/internal/device"
	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/simclock"
	"score/internal/trace"
)

// Testbed is one shot's hardware and observers.
type Testbed struct {
	Cluster *fabric.Cluster
	// Tracer is nil unless tracing was asked for; Sampler is nil unless a
	// sample interval was.
	Tracer  *trace.Tracer
	Sampler *metrics.Sampler

	clk   *simclock.Virtual
	gpus  int
	costs device.AllocCosts
	pools []*core.SharedHostCache // per node, built on first use
}

// New builds nodes DGX A100 nodes of gpusPerNode GPUs each on clk. The
// bandwidth multiplier scales every link and both allocation rates alike,
// so a reduced-scale run keeps the paper's cost ratios (e.g. pinned
// allocation slower than the transfers it enables, §4.1.4); 1 is the
// paper's hardware, and the cluster rejects a non-positive one. With
// tracing it builds a tracer; with a positive sample interval, a sampler
// the tracer draws its counter tracks from.
func New(clk *simclock.Virtual, nodes, gpusPerNode int, bandwidth float64, tracing bool, sample time.Duration) (*Testbed, error) {
	hw := fabric.DGXA100()
	hw.GPUs = gpusPerNode
	hw.D2DBandwidth *= bandwidth
	hw.PCIeBandwidth *= bandwidth
	hw.NVMePerDrive *= bandwidth
	hw.PFSBandwidth *= bandwidth
	hw.NICBandwidth *= bandwidth
	costs := device.DefaultAllocCosts()
	costs.DeviceBytesPerSec *= bandwidth
	costs.PinnedHostBytesPerSec *= bandwidth
	cluster, err := fabric.NewCluster(clk, nodes, hw)
	if err != nil {
		return nil, err
	}
	t := &Testbed{Cluster: cluster, clk: clk, gpus: gpusPerNode, costs: costs,
		pools: make([]*core.SharedHostCache, nodes)}
	if tracing {
		t.Tracer = trace.New(clk.Now)
	}
	if sample > 0 {
		t.Sampler = metrics.NewSampler(clk, sample, 0)
		t.Tracer.SetCounterSource(t.Sampler)
	}
	return t, nil
}

// GPU builds GPU gpu of node on the node's links. Its device ID is its
// job rank, node × GPUs per node + gpu: the tracer keys spans, ledger rows
// and flow IDs by it.
func (t *Testbed) GPU(node, gpu int) *device.GPU {
	d2d, pcie := t.Cluster.Nodes[node].GPULinks(gpu)
	return device.NewGPU(t.clk, node*t.gpus+gpu, device.A100HBM, d2d, pcie, t.costs)
}

// SharedHost returns node's host cache pool of the given size, shared by
// its GPUs' clients, building it on first use.
func (t *Testbed) SharedHost(node int, size int64) *core.SharedHostCache {
	p := t.pools[node]
	if p == nil {
		p = core.NewSharedHostCache(t.clk, fmt.Sprintf("node%d-sharedhost", node), size, t.gpus)
		t.pools[node] = p
	}
	return p
}

// Close releases the shared host pools; call once every client is closed.
func (t *Testbed) Close() {
	for _, p := range t.pools {
		if p != nil {
			p.Close()
		}
	}
}

// Probes is the prefix of the sampled gauges of GPU gpu of node.
func Probes(node, gpu int) string { return fmt.Sprintf("node%d.gpu%d", node, gpu) }
