package uvmsim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"score/internal/device"
	"score/internal/fabric"
	"score/internal/payload"
	"score/internal/simclock"
)

const MB = 1 << 20

func newUVM(t *testing.T, clk *simclock.Virtual, mutate func(*Config)) *Client {
	t.Helper()
	cfg := fabric.NodeConfig{
		GPUs: 2, D2DBandwidth: 1000 * MB, PCIeBandwidth: 100 * MB,
		GPUsPerPCIe: 2, NVMeDrives: 1, NVMePerDrive: 25 * MB,
		PFSBandwidth: 10 * MB,
	}
	cluster, err := fabric.NewCluster(clk, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2d, pcie := cluster.Nodes[0].GPULinks(0)
	gpu := device.NewGPU(clk, 0, 64*MB, d2d, pcie, device.DefaultAllocCosts())
	c := Config{
		Clock: clk, GPU: gpu, NVMe: cluster.Nodes[0].NVMe,
		DeviceCacheSize: 4 * MB, HostCacheSize: 16 * MB,
	}
	if mutate != nil {
		mutate(&c)
	}
	client, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestUVMRoundTrip(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newUVM(t, clk, nil)
		defer c.Close()
		in := payload.NewReal([]byte("uvm snapshot"))
		if err := c.Checkpoint(0, in); err != nil {
			t.Fatal(err)
		}
		out, err := c.Restore(0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Checksum() != in.Checksum() {
			t.Error("payload mismatch")
		}
	})
}

func TestUVMEvictionCascade(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newUVM(t, clk, nil)
		defer c.Close()
		for i := int64(0); i < 12; i++ {
			if err := c.Checkpoint(i, payload.NewVirtual(MB)); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		for i := int64(11); i >= 0; i-- {
			if _, err := c.Restore(i); err != nil {
				t.Fatalf("restore %d: %v", i, err)
			}
		}
	})
}

func TestUVMFaultReplayCostCharged(t *testing.T) {
	// Restoring a non-resident checkpoint must cost at least the fault
	// batches plus the migration, strictly more than a resident read.
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newUVM(t, clk, nil)
		defer c.Close()
		for i := int64(0); i < 8; i++ { // 8MB through a 4MB device cache
			if err := c.Checkpoint(i, payload.NewVirtual(MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		// Checkpoint 0 was evicted; 7 should still be device-resident.
		start := clk.Now()
		if _, err := c.Restore(7); err != nil {
			t.Fatal(err)
		}
		residentTime := clk.Now() - start
		start = clk.Now()
		if _, err := c.Restore(0); err != nil {
			t.Fatal(err)
		}
		faultTime := clk.Now() - start
		if faultTime <= residentTime {
			t.Errorf("faulting restore (%v) not slower than resident restore (%v)", faultTime, residentTime)
		}
		// 1MB at migration bandwidth (60MB/s effective) ≈ 16.7ms min.
		if faultTime < 10*time.Millisecond {
			t.Errorf("faulting restore took %v; expected >= ~16ms of migration", faultTime)
		}
	})
}

func TestUVMPrefetchingHelpsReverseRestore(t *testing.T) {
	const n = 12
	runShot := func(hints bool) time.Duration {
		var blocked time.Duration
		clk := simclock.NewVirtual()
		clk.Run(func() {
			c := newUVM(t, clk, nil)
			defer c.Close()
			if hints {
				for i := n - 1; i >= 0; i-- {
					c.PrefetchEnqueue(int64(i))
				}
			}
			for i := int64(0); i < n; i++ {
				if err := c.Checkpoint(i, payload.NewVirtual(MB)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.WaitFlush(); err != nil {
				t.Fatal(err)
			}
			c.PrefetchStart()
			for i := int64(n - 1); i >= 0; i-- {
				start := clk.Now()
				if _, err := c.Restore(i); err != nil {
					t.Fatal(err)
				}
				blocked += clk.Now() - start
				clk.Sleep(20 * time.Millisecond)
			}
		})
		return blocked
	}
	withHints := runShot(true)
	withoutHints := runShot(false)
	if withHints >= withoutHints {
		t.Errorf("hinted UVM blocked %v, unhinted %v: prefetch hints should help", withHints, withoutHints)
	}
}

func TestUVMAPIErrors(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newUVM(t, clk, nil)
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); !errors.Is(err, ErrDuplicate) {
			t.Errorf("duplicate: %v", err)
		}
		if _, err := c.Restore(9); !errors.Is(err, ErrUnknownCheckpoint) {
			t.Errorf("unknown: %v", err)
		}
		c.Close()
		if err := c.Checkpoint(1, payload.NewVirtual(MB)); !errors.Is(err, ErrClosed) {
			t.Errorf("after close: %v", err)
		}
		c.Close()
	})
}

func TestUVMConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	clk := simclock.NewVirtual()
	cl, _ := fabric.NewCluster(clk, 1, fabric.DGXA100())
	d2d, pcie := cl.Nodes[0].GPULinks(0)
	gpu := device.NewGPU(clk, 0, 40*fabric.GB, d2d, pcie, device.DefaultAllocCosts())
	if _, err := New(Config{Clock: clk, GPU: gpu, NVMe: cl.Nodes[0].NVMe,
		DeviceCacheSize: -1}); err == nil {
		t.Error("negative DeviceCacheSize accepted")
	}
}

func TestUVMNVMeOutageSurfaces(t *testing.T) {
	// Every SSD write fails: the writebacks reach the host, the flush
	// chain's SSD leg fails, and the first failure must surface from
	// WaitFlush and Err without stranding any waiter.
	outage := errors.New("nvme outage")
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newUVM(t, clk, func(cfg *Config) {
			cfg.NVMe.SetInterceptor(func(string, int64) fabric.FaultDecision {
				return fabric.FaultDecision{Err: outage}
			})
		})
		for i := int64(0); i < 6; i++ { // 12MB through a 4MB device cache
			if err := c.Checkpoint(i, payload.NewVirtual(2*MB)); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
		}
		if err := c.WaitFlush(); !errors.Is(err, outage) {
			t.Errorf("WaitFlush = %v, want the outage", err)
		}
		if err := c.Err(); !errors.Is(err, outage) {
			t.Errorf("Err = %v, want the outage", err)
		}
		c.Close()
	})
}

// checkAccounting compares the running pinnedBytes counter with a fresh
// sum over every checkpoint and, whenever no record is in flight, devUsed
// with the sizes of the device-resident records: each resident byte is
// reserved exactly once. It panics, because a drifted window or a double
// reservation can wedge the shot: it stops there.
func checkAccounting(c *Client, when string) {
	var pinned, resident int64
	inflight := false
	for _, k := range c.ckpts {
		pinned += k.pinned()
		if k.onDevice {
			resident += k.size
		}
		inflight = inflight || k.inflight
	}
	if c.pinnedBytes != pinned {
		panic(fmt.Sprintf("%s: pinnedBytes = %d, the checkpoints pin %d", when, c.pinnedBytes, pinned))
	}
	if !inflight && c.devUsed != resident {
		panic(fmt.Sprintf("%s: devUsed = %d, the resident checkpoints hold %d", when, c.devUsed, resident))
	}
}

// watchAccounting runs checkAccounting every 10 µs of simulated time, for
// up to a simulated minute, until stop is called.
func watchAccounting(clk *simclock.Virtual, c *Client) (stop func()) {
	done := false
	clk.Go(func() {
		for ; !done && clk.Now() < time.Minute; clk.Sleep(10 * time.Microsecond) {
			checkAccounting(c, "between calls")
		}
	})
	return func() { done = true }
}

// TestPinnedBytesCounterIsTheSum runs a hinted reverse shot that prefetches,
// evicts and deviates (an unhinted restore and an out-of-order one), and
// checks the accounting after each call and every 10 µs of simulated time
// in between: an update site that skipped the counter leaves it off from
// then on.
func TestPinnedBytesCounterIsTheSum(t *testing.T) {
	const n = 12
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newUVM(t, clk, nil)
		defer c.Close()
		defer watchAccounting(clk, c)()
		for i := n - 1; i >= 1; i-- {
			c.PrefetchEnqueue(int64(i))
		}
		for i := int64(0); i < n; i++ {
			if err := c.Checkpoint(i, payload.NewVirtual(MB)); err != nil {
				t.Fatal(err)
			}
			checkAccounting(c, "after a checkpoint")
		}
		c.PrefetchStart()
		for _, i := range []int64{11, 10, 8, 9, 0, 7, 6, 5, 4, 3, 2, 1} {
			if _, err := c.Restore(i); err != nil {
				t.Fatal(err)
			}
			checkAccounting(c, "after a restore")
			clk.Sleep(5 * time.Millisecond)
		}
	})
}

// TestPrefetchStartedBeforeTheWrites starts the prefetcher before the
// first write. A write still in flight is no prefetch target: were it
// one, the writer and the prefetcher would both reserve its bytes, and
// both park in reserveDevice with nothing left to evict.
func TestPrefetchStartedBeforeTheWrites(t *testing.T) {
	const n = 12
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newUVM(t, clk, nil)
		defer c.Close()
		defer watchAccounting(clk, c)()
		for i := n - 1; i >= 0; i-- {
			c.PrefetchEnqueue(int64(i))
		}
		c.PrefetchStart()
		for i := int64(0); i < n; i++ {
			if err := c.Checkpoint(i, payload.NewVirtual(MB)); err != nil {
				t.Fatal(err)
			}
			checkAccounting(c, "after a checkpoint")
		}
		for i := int64(n - 1); i >= 0; i-- {
			if _, err := c.Restore(i); err != nil {
				t.Fatal(err)
			}
			checkAccounting(c, "after a restore")
		}
	})
}

// TestFailedWriteLeavesNoRecord fails a Checkpoint's migrate-before-evict
// writeback on the PCIe link: the version was never written, so a restore
// of it must not find it, and writing it again must succeed. A restore
// that faults over the failing link gives back the room it reserved.
func TestFailedWriteLeavesNoRecord(t *testing.T) {
	link := errors.New("pcie link down")
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newUVM(t, clk, nil)
		defer c.Close()
		for i := int64(0); i < 4; i++ { // fill the 4MB device cache
			if err := c.Checkpoint(i, payload.NewVirtual(MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		pcie := c.cfg.GPU.PCIeLink()
		pcie.SetInterceptor(func(string, int64) fabric.FaultDecision { return fabric.FaultDecision{Err: link} })
		if err := c.Checkpoint(4, payload.NewVirtual(MB)); !errors.Is(err, link) {
			t.Fatalf("checkpoint over a failing link = %v, want the link error", err)
		}
		if _, err := c.Restore(0); !errors.Is(err, link) { // evicted by the failed write
			t.Fatalf("faulting restore over a failing link = %v, want the link error", err)
		}
		checkAccounting(c, "after a failed fault")
		pcie.SetInterceptor(nil)
		if _, err := c.Restore(4); !errors.Is(err, ErrUnknownCheckpoint) {
			t.Errorf("restore of the failed write = %v, want ErrUnknownCheckpoint", err)
		}
		if err := c.Checkpoint(4, payload.NewVirtual(MB)); err != nil {
			t.Errorf("retried checkpoint = %v, want success", err)
		}
		for _, i := range []int64{4, 0} {
			if _, err := c.Restore(i); err != nil {
				t.Errorf("restore %d after the link came back = %v", i, err)
			}
		}
		checkAccounting(c, "after the retry")
	})
}
