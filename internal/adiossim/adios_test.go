package adiossim

import (
	"errors"
	"testing"
	"time"

	"score/internal/device"
	"score/internal/fabric"
	"score/internal/payload"
	"score/internal/simclock"
)

const MB = 1 << 20

func newADIOS(t *testing.T, clk *simclock.Virtual, mutate func(*Config)) *Client {
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
	c := Config{Clock: clk, GPU: gpu, NVMe: cluster.Nodes[0].NVMe, HostBufferSize: 16 * MB}
	if mutate != nil {
		mutate(&c)
	}
	client, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestADIOSRoundTrip(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newADIOS(t, clk, nil)
		defer c.Close()
		in := payload.NewReal([]byte("bp5 step"))
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
		if size, err := c.RestoreSize(0); err != nil || size != in.Size() {
			t.Errorf("RestoreSize = %d, %v", size, err)
		}
	})
}

func TestADIOSCheckpointBlocksForPCIe(t *testing.T) {
	// No device cache: the Put blocks for the full D2H transfer
	// (1MB at 100MB/s = 10ms), unlike Score's ~1ms D2D.
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newADIOS(t, clk, nil)
		defer c.Close()
		start := clk.Now()
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); err != nil {
			t.Fatal(err)
		}
		blocked := clk.Now() - start
		if blocked < 9*time.Millisecond {
			t.Errorf("checkpoint blocked %v; ADIOS2 must pay the PCIe copy (~10ms)", blocked)
		}
	})
}

func TestADIOSBackpressureWhenBufferFull(t *testing.T) {
	// 16MB buffer, 1MB steps: writing 32MB must block on the NVMe
	// drain for the overflow.
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newADIOS(t, clk, nil)
		defer c.Close()
		for i := int64(0); i < 32; i++ {
			if err := c.Checkpoint(i, payload.NewVirtual(MB)); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		// Drained: all steps on NVMe, buffer empty.
		used := c.hostUsed
		if used != 0 {
			t.Errorf("host buffer holds %d bytes after WaitFlush, want 0", used)
		}
		for i := int64(0); i < 32; i++ {
			if _, err := c.Restore(i); err != nil {
				t.Fatalf("restore %d: %v", i, err)
			}
		}
	})
}

func TestADIOSDrainsInWriteOrder(t *testing.T) {
	// BP5 deferred I/O drains FIFO: at any moment the steps still in the
	// host buffer are the newest ones, a contiguous suffix of the writes.
	// An NVMe drive far slower than the PCIe copy keeps several steps
	// pending at once.
	clk := simclock.NewVirtual()
	clk.Run(func() {
		slow, err := fabric.NewCluster(clk, 1, fabric.NodeConfig{
			GPUs: 1, D2DBandwidth: 1000 * MB, PCIeBandwidth: 100 * MB,
			GPUsPerPCIe: 1, NVMeDrives: 1, NVMePerDrive: MB, PFSBandwidth: MB,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := newADIOS(t, clk, func(cfg *Config) { cfg.NVMe = slow.Nodes[0].NVMe })
		defer c.Close()
		for i := int64(0); i < 48; i++ {
			if err := c.Checkpoint(i, payload.NewVirtual(MB)); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
			for j := int64(1); j <= i; j++ {
				if c.steps[j-1].buffered && !c.steps[j].buffered {
					t.Fatalf("after step %d: step %d drained before step %d", i, j, j-1)
				}
			}
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if n := c.drainQ.Len(); n != 0 {
			t.Errorf("%d steps pending after WaitFlush", n)
		}
	})
}

func TestADIOSRestoreFromNVMeIsSlow(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newADIOS(t, clk, nil)
		defer c.Close()
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		if _, err := c.Restore(0); err != nil {
			t.Fatal(err)
		}
		blocked := clk.Now() - start
		// NVMe read (1MB @ 25MB/s = 40ms) + H2D (10ms) = ~50ms.
		if blocked < 45*time.Millisecond {
			t.Errorf("drained restore blocked %v, want ~50ms (NVMe + PCIe)", blocked)
		}
	})
}

func TestADIOSHintsIgnored(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newADIOS(t, clk, nil)
		defer c.Close()
		c.PrefetchEnqueue(0) // must be a harmless no-op
		c.PrefetchStart()
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restore(0); err != nil {
			t.Fatal(err)
		}
		sum := c.Metrics().Snapshot()
		if sum.RestoreSeries[0].PrefetchDistance != 0 {
			t.Error("ADIOS2 reported a nonzero prefetch distance")
		}
	})
}

func TestADIOSErrors(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newADIOS(t, clk, nil)
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); !errors.Is(err, ErrDuplicate) {
			t.Errorf("duplicate: %v", err)
		}
		if _, err := c.Restore(7); !errors.Is(err, ErrUnknownCheckpoint) {
			t.Errorf("unknown: %v", err)
		}
		if _, err := c.RestoreSize(7); !errors.Is(err, ErrUnknownCheckpoint) {
			t.Errorf("unknown size: %v", err)
		}
		c.Close()
		if err := c.Checkpoint(1, payload.NewVirtual(MB)); !errors.Is(err, ErrClosed) {
			t.Errorf("after close: %v", err)
		}
	})
}

// TestADIOSFailedPutLeavesNoStep fails a Put's D2H copy on the PCIe link:
// the step was never written, so a Get of it must not find it, and writing
// it again must succeed.
func TestADIOSFailedPutLeavesNoStep(t *testing.T) {
	link := errors.New("pcie link down")
	clk := simclock.NewVirtual()
	clk.Run(func() {
		c := newADIOS(t, clk, nil)
		defer c.Close()
		pcie := c.cfg.GPU.PCIeLink()
		pcie.SetInterceptor(func(string, int64) fabric.FaultDecision { return fabric.FaultDecision{Err: link} })
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); !errors.Is(err, link) {
			t.Fatalf("checkpoint over a failing link = %v, want the link error", err)
		}
		pcie.SetInterceptor(nil)
		if _, err := c.Restore(0); !errors.Is(err, ErrUnknownCheckpoint) {
			t.Errorf("restore of the failed put = %v, want ErrUnknownCheckpoint", err)
		}
		if err := c.Checkpoint(0, payload.NewVirtual(MB)); err != nil {
			t.Errorf("retried checkpoint = %v, want success", err)
		}
		if _, err := c.Restore(0); err != nil {
			t.Errorf("restore of the retried put = %v", err)
		}
	})
}

func TestADIOSConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}
