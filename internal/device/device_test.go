package device

import (
	"testing"
	"time"

	"score/internal/fabric"
	"score/internal/simclock"
)

func newTestGPU(clk simclock.Clock) *GPU {
	d2d := fabric.NewLink(clk, "d2d", 1000*fabric.GB, 0)
	pcie := fabric.NewLink(clk, "pcie", 25*fabric.GB, 0)
	return NewGPU(clk, 0, 40*fabric.GB, d2d, pcie, DefaultAllocCosts())
}

func TestAllocAccounting(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		g := newTestGPU(clk)
		if err := g.AllocDevice(10 * fabric.GB); err != nil {
			t.Fatal(err)
		}
		if got := g.HBMUsed(); got != 10*fabric.GB {
			t.Errorf("used = %d, want 10GB", got)
		}
		if err := g.AllocDevice(31 * fabric.GB); err == nil {
			t.Error("over-allocation should fail")
		}
		g.FreeDevice(10 * fabric.GB)
		if got := g.HBMUsed(); got != 0 {
			t.Errorf("used after free = %d, want 0", got)
		}
	})
}

func TestDeviceAllocationCost(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		g := newTestGPU(clk)
		start := clk.Now()
		if err := g.AllocDevice(10 * fabric.GB); err != nil {
			t.Fatal(err)
		}
		// 10GB at 1TB/s = 10ms.
		if got, want := clk.Now()-start, 10*time.Millisecond; absDur(got-want) > time.Millisecond {
			t.Errorf("device alloc took %v, want ~%v", got, want)
		}
	})
}

func TestPinnedHostAllocationIsExpensive(t *testing.T) {
	// §4.1.4: pinned host allocation at ~4 GB/s is slower than the
	// 25 GB/s transfer it enables — the reason Score pre-allocates.
	clk := simclock.NewVirtual()
	clk.Run(func() {
		g := newTestGPU(clk)
		start := clk.Now()
		g.AllocPinnedHost(32 * fabric.GB)
		allocTime := clk.Now() - start
		if want := 8 * time.Second; absDur(allocTime-want) > 100*time.Millisecond {
			t.Errorf("pinned alloc of 32GB took %v, want ~%v", allocTime, want)
		}
		start = clk.Now()
		if _, err := g.TryCopyD2H(32 * fabric.GB); err != nil {
			t.Error(err)
			return
		}
		xferTime := clk.Now() - start
		if xferTime >= allocTime {
			t.Errorf("transfer (%v) should be faster than pinned allocation (%v)", xferTime, allocTime)
		}
	})
}

func TestCopiesUseRespectiveLinks(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		g := newTestGPU(clk)
		if d := g.CopyD2D(fabric.GB); absDur(d-time.Millisecond) > 100*time.Microsecond {
			t.Errorf("D2D 1GB took %v, want ~1ms at 1TB/s", d)
		}
		if d, err := g.TryCopyD2H(25 * fabric.GB); err != nil || absDur(d-time.Second) > 10*time.Millisecond {
			t.Errorf("D2H 25GB took %v (err %v), want ~1s at 25GB/s", d, err)
		}
		if d, err := g.TryCopyH2D(25 * fabric.GB); err != nil || absDur(d-time.Second) > 10*time.Millisecond {
			t.Errorf("H2D 25GB took %v (err %v), want ~1s at 25GB/s", d, err)
		}
	})
}

func TestComputeAdvancesClock(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		g := newTestGPU(clk)
		start := clk.Now()
		g.Compute(10 * time.Millisecond)
		if got := clk.Now() - start; got != 10*time.Millisecond {
			t.Errorf("Compute advanced %v, want 10ms", got)
		}
	})
}

func TestNegativeFreePanics(t *testing.T) {
	clk := simclock.NewVirtual()
	g := newTestGPU(clk)
	defer func() {
		if recover() == nil {
			t.Error("freeing more than allocated did not panic")
		}
	}()
	g.FreeDevice(1)
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// TestCopyEngineCap: three concurrent chunked streams on a GPU with two
// copy engines must never put more than two streams on the PCIe link at
// once — the third waits for an engine.
func TestCopyEngineCap(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		g := newTestGPU(clk)
		if g.CopyEngines() != DefaultCopyEngines {
			t.Fatalf("CopyEngines = %d, want default %d", g.CopyEngines(), DefaultCopyEngines)
		}
		ssd := fabric.NewLink(clk, "nvme", 16*fabric.GB, 0)
		wg := simclock.NewWaitGroup(clk)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				if _, err := g.TryStreamD2H(fabric.Path{ssd}, 2*fabric.GB, fabric.GB/8); err != nil {
					t.Errorf("TryStreamD2H: %v", err)
				}
			})
		}
		wg.Wait()
		if _, _, peak := g.PCIeLink().Stats(); peak > DefaultCopyEngines {
			t.Errorf("PCIe peak concurrency = %d, want <= %d (copy-engine cap)", peak, DefaultCopyEngines)
		}
		bytes, _, _ := ssd.Stats()
		if want := int64(3 * 2 * fabric.GB); bytes != want {
			t.Errorf("NVMe carried %d bytes, want %d", bytes, want)
		}
	})
}

// TestSetCopyEngines: raising the engine count lets more streams run
// concurrently; the setter rejects non-positive values.
func TestSetCopyEngines(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		g := newTestGPU(clk)
		g.SetCopyEngines(4)
		if g.CopyEngines() != 4 {
			t.Fatalf("CopyEngines = %d, want 4", g.CopyEngines())
		}
		wg := simclock.NewWaitGroup(clk)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				g.TryStreamD2H(nil, fabric.GB, fabric.GB/4)
			})
		}
		wg.Wait()
		if _, _, peak := g.PCIeLink().Stats(); peak != 4 {
			t.Errorf("PCIe peak concurrency = %d, want 4", peak)
		}
		defer func() {
			if recover() == nil {
				t.Error("SetCopyEngines(0) did not panic")
			}
		}()
		g.SetCopyEngines(0)
	})
}
