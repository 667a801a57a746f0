// Package device models the GPU and host-memory resources a Score client
// uses: HBM capacity accounting, timed memory allocation (the paper's
// §4.1.4 motivates pre-allocating and pinning cache buffers because
// on-demand allocation can cost more than the transfer itself), copy
// engines over the fabric links, and compute-kernel emulation.
package device

import (
	"fmt"
	"sync"
	"time"

	"score/internal/fabric"
	"score/internal/simclock"
)

// AllocCosts models memory-allocation throughput on each tier (paper
// §4.1.4: "memory allocation speed [on A100 HBM] ... about 1 TB/s ...
// pinned memory can be allocated on the host cache at about 4 GB/s").
type AllocCosts struct {
	// DeviceBytesPerSec is the HBM allocation rate.
	DeviceBytesPerSec float64
	// PinnedHostBytesPerSec is the pinned host allocation+registration
	// rate.
	PinnedHostBytesPerSec float64
}

// DefaultAllocCosts returns the paper's measured A100 allocation rates.
func DefaultAllocCosts() AllocCosts {
	return AllocCosts{
		DeviceBytesPerSec:     1000 * fabric.GB,
		PinnedHostBytesPerSec: 4 * fabric.GB,
	}
}

// DefaultCopyEngines is the number of DMA copy engines a GPU exposes to
// the runtime's streams. An A100 has more physical engines, but the
// paper's runtime drives one stream per direction pair, so two
// concurrent chunked streams per GPU is the measured shape (§4.3).
const DefaultCopyEngines = 2

// GPU is one simulated accelerator: a bounded HBM pool plus the links that
// connect it to its own memory (D2D), to host memory (PCIe), and through
// the host to storage.
type GPU struct {
	clk   simclock.Clock
	id    int
	hbm   int64 // total HBM bytes
	costs AllocCosts

	d2d  *fabric.Link
	pcie *fabric.Link

	mu        sync.Mutex
	used      int64
	allocIcpt fabric.TransferInterceptor

	// Copy-engine accounting: chunked streams (TryStream) each hold one
	// engine end to end, so at most engines streams make DMA progress
	// concurrently; excess streams queue on engCond.
	engCond simclock.Cond
	engines int
	engBusy int
}

// NewGPU creates GPU id with hbmCapacity bytes of device memory attached
// to the given fabric links.
func NewGPU(clk simclock.Clock, id int, hbmCapacity int64, d2d, pcie *fabric.Link, costs AllocCosts) *GPU {
	if hbmCapacity <= 0 {
		panic(fmt.Sprintf("device: GPU %d: HBM capacity must be positive", id))
	}
	if costs.DeviceBytesPerSec <= 0 || costs.PinnedHostBytesPerSec <= 0 {
		panic("device: allocation rates must be positive")
	}
	g := &GPU{clk: clk, id: id, hbm: hbmCapacity, costs: costs, d2d: d2d, pcie: pcie,
		engines: DefaultCopyEngines}
	g.engCond = clk.NewCond(&g.mu)
	return g
}

// SetCopyEngines overrides the number of copy engines (>= 1) available
// to chunked streams. Call before starting work; it does not preempt
// streams already holding an engine.
func (g *GPU) SetCopyEngines(n int) {
	if n < 1 {
		panic(fmt.Sprintf("device: GPU %d: copy engines must be >= 1, got %d", g.id, n))
	}
	g.mu.Lock()
	g.engines = n
	g.engCond.Broadcast()
	g.mu.Unlock()
}

// CopyEngines returns the number of copy engines available to chunked
// streams.
func (g *GPU) CopyEngines() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.engines
}

// EnginesBusy returns the number of copy engines currently held by
// streams — the observability sampler's occupancy probe.
func (g *GPU) EnginesBusy() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.engBusy
}

func (g *GPU) acquireEngine() {
	g.mu.Lock()
	for g.engBusy >= g.engines {
		g.engCond.Wait()
	}
	g.engBusy++
	g.mu.Unlock()
}

func (g *GPU) releaseEngine() {
	g.mu.Lock()
	g.engBusy--
	if g.engBusy < 0 {
		panic(fmt.Sprintf("device: GPU %d: negative copy-engine usage", g.id))
	}
	g.engCond.Broadcast()
	g.mu.Unlock()
}

// ID returns the GPU's index on its node.
func (g *GPU) ID() int { return g.id }

// Costs returns the GPU's allocation-cost model.
func (g *GPU) Costs() AllocCosts { return g.costs }

// ChargeDeviceAlloc charges the simulated time of allocating size bytes
// of device memory without reserving capacity (used by the on-demand
// allocation ablation, where the region is logically transient).
func (g *GPU) ChargeDeviceAlloc(size int64) {
	g.clk.Sleep(allocDuration(size, g.costs.DeviceBytesPerSec))
}

// HBMUsed returns the currently allocated device memory in bytes.
func (g *GPU) HBMUsed() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// AllocDevice reserves size bytes of HBM, charging the simulated
// allocation time. It fails if the device is out of memory.
func (g *GPU) AllocDevice(size int64) error {
	if size < 0 {
		return fmt.Errorf("device: GPU %d: negative allocation %d", g.id, size)
	}
	g.mu.Lock()
	if g.used+size > g.hbm {
		defer g.mu.Unlock()
		return fmt.Errorf("device: GPU %d: out of memory: %d used + %d requested > %d HBM",
			g.id, g.used, size, g.hbm)
	}
	g.used += size
	g.mu.Unlock()
	g.clk.Sleep(allocDuration(size, g.costs.DeviceBytesPerSec))
	return nil
}

// FreeDevice releases size bytes of HBM.
func (g *GPU) FreeDevice(size int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.used -= size
	if g.used < 0 {
		panic(fmt.Sprintf("device: GPU %d: negative HBM usage", g.id))
	}
}

// SetAllocInterceptor installs a fault-injection interceptor on pinned
// host allocation. Allocation pressure slows registration (Delay and
// BandwidthScale) but never fails it — a FaultDecision.Err is ignored.
func (g *GPU) SetAllocInterceptor(f fabric.TransferInterceptor) {
	g.mu.Lock()
	g.allocIcpt = f
	g.mu.Unlock()
}

// AllocPinnedHost charges the simulated time to allocate and register size
// bytes of pinned host memory. (Host capacity bookkeeping is the
// runtime's responsibility; this models only the registration cost that
// makes pre-allocation worthwhile.)
func (g *GPU) AllocPinnedHost(size int64) {
	if size <= 0 {
		return
	}
	g.mu.Lock()
	icpt := g.allocIcpt
	g.mu.Unlock()
	rate := g.costs.PinnedHostBytesPerSec
	if icpt != nil {
		fd := icpt("host-alloc", size)
		if fd.Delay > 0 {
			g.clk.Sleep(fd.Delay)
		}
		if fd.BandwidthScale > 0 && fd.BandwidthScale < 1 {
			rate *= fd.BandwidthScale
		}
	}
	g.clk.Sleep(allocDuration(size, rate))
}

// CopyD2D moves size bytes within device memory (e.g. application buffer
// → GPU cache) and returns the simulated duration. Intra-device copies
// have no fault interceptor, so no error can be lost here.
func (g *GPU) CopyD2D(size int64) time.Duration {
	d, _ := g.d2d.TryTransfer(size)
	return d
}

// TryCopyD2H moves size bytes from device to host over PCIe, surfacing
// injected PCIe faults.
func (g *GPU) TryCopyD2H(size int64) (time.Duration, error) { return g.pcie.TryTransfer(size) }

// TryCopyH2D moves size bytes from host to device over PCIe, surfacing
// injected PCIe faults.
func (g *GPU) TryCopyH2D(size int64) (time.Duration, error) { return g.pcie.TryTransfer(size) }

// TryStream moves size bytes along path — which holds the GPU's PCIe link
// (PCIeLink) first for a stream off the device, or last for one onto it,
// e.g. PCIe then the node NVMe for a GPU→SSD flush — as one chunked
// pipelined stream, holding one of the GPU's copy engines for the
// stream's duration. The caller composes the path once and reuses it.
// With chunkSize <= 0, or a one-hop path, the transfer is monolithic
// store-and-forward, timed identically to TryCopyD2H or TryCopyH2D plus
// sequential hops. The first hop failure aborts the stream and is
// returned.
func (g *GPU) TryStream(path fabric.Path, size, chunkSize int64) (fabric.PipelineStats, error) {
	g.acquireEngine()
	defer g.releaseEngine()
	return path.TryPipelined(size, chunkSize)
}

// PCIeLink returns the device's PCIe link.
func (g *GPU) PCIeLink() *fabric.Link { return g.pcie }

// Compute emulates a kernel of the given duration (the paper's benchmark
// "runs trivial iterations, by sleeping to simulate computations").
func (g *GPU) Compute(d time.Duration) { g.clk.Sleep(d) }

func allocDuration(size int64, rate float64) time.Duration {
	if size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / rate * 1e9)
}
