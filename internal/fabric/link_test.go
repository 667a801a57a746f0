package fabric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"score/internal/simclock"
)

func TestSingleTransferTakesSizeOverBandwidth(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "test", 1*GB, 0)
		d := mustTransfer(t, l, 1*GB)
		if got, want := d, time.Second; absDur(got-want) > time.Millisecond {
			t.Errorf("1GB over 1GB/s took %v, want ~%v", got, want)
		}
	})
}

func TestTransferLatencyAdds(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "lat", 1*GB, 100*time.Millisecond)
		d := mustTransfer(t, l, 1*GB)
		want := time.Second + 100*time.Millisecond
		if absDur(d-want) > time.Millisecond {
			t.Errorf("transfer took %v, want ~%v", d, want)
		}
	})
}

func TestZeroSizeTransferIsInstant(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "z", 1*GB, time.Hour)
		if d := mustTransfer(t, l, 0); d != 0 {
			t.Errorf("zero-size transfer took %v, want 0", d)
		}
		if d := mustTransfer(t, l, -5); d != 0 {
			t.Errorf("negative-size transfer took %v, want 0", d)
		}
	})
}

func TestTwoConcurrentTransfersShareBandwidth(t *testing.T) {
	// Two equal transfers starting together on a shared link must each
	// take twice as long as alone.
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "shared", 1*GB, 0)
		wg := simclock.NewWaitGroup(clk)
		durs := make([]time.Duration, 2)
		for i := 0; i < 2; i++ {
			i := i
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				durs[i] = mustTransfer(t, l, 1*GB)
			})
		}
		wg.Wait()
		for i, d := range durs {
			if want := 2 * time.Second; absDur(d-want) > 10*time.Millisecond {
				t.Errorf("transfer %d took %v, want ~%v", i, d, want)
			}
		}
	})
}

func TestLateArrivalFairShare(t *testing.T) {
	// A 2GB transfer runs alone for 1s (1GB done), then a 1GB transfer
	// joins. They share: the second GB of A and the 1GB of B take 2s
	// each of wall time... concretely:
	//   t=0..1   : A alone at 1GB/s  -> A has 1GB left
	//   t=1..3   : A and B at 0.5GB/s-> both finish at t=3
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "late", 1*GB, 0)
		wg := simclock.NewWaitGroup(clk)
		var endA, endB time.Duration
		wg.Add(2)
		clk.Go(func() {
			defer wg.Done()
			mustTransfer(t, l, 2*GB)
			endA = clk.Now()
		})
		clk.Go(func() {
			defer wg.Done()
			clk.Sleep(time.Second)
			mustTransfer(t, l, 1*GB)
			endB = clk.Now()
		})
		wg.Wait()
		if want := 3 * time.Second; absDur(endA-want) > 10*time.Millisecond {
			t.Errorf("A finished at %v, want ~%v", endA, want)
		}
		if want := 3 * time.Second; absDur(endB-want) > 10*time.Millisecond {
			t.Errorf("B finished at %v, want ~%v", endB, want)
		}
	})
}

func TestShortTransferFinishesFirstAndSpeedsUpLongOne(t *testing.T) {
	//   t=0..1   : 4GB and 1GB share 2GB/s -> each at 1GB/s
	//   t=1      : short one (1GB) completes
	//   t=1..2.5 : long one alone at 2GB/s, 3GB left -> finishes t=2.5
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "mix", 2*GB, 0)
		wg := simclock.NewWaitGroup(clk)
		var endShort, endLong time.Duration
		wg.Add(2)
		clk.Go(func() {
			defer wg.Done()
			mustTransfer(t, l, 4*GB)
			endLong = clk.Now()
		})
		clk.Go(func() {
			defer wg.Done()
			mustTransfer(t, l, 1*GB)
			endShort = clk.Now()
		})
		wg.Wait()
		if want := time.Second; absDur(endShort-want) > 10*time.Millisecond {
			t.Errorf("short finished at %v, want ~%v", endShort, want)
		}
		if want := 2500 * time.Millisecond; absDur(endLong-want) > 10*time.Millisecond {
			t.Errorf("long finished at %v, want ~%v", endLong, want)
		}
	})
}

// TestTransfersWakeOnlyAtCompletion pins the link's wake count: every
// join and completion changes the share, yet each transfer's task wakes
// exactly once — when its transfer completes — because the end of the
// latency is the transfer's join event, not a wake, and elections move the
// pacer's timer without waking anyone. The finish instants are the
// fair-share expectations of the tests above, shifted by the latency.
func TestTransfersWakeOnlyAtCompletion(t *testing.T) {
	const lat = time.Millisecond
	type xfer struct {
		start time.Duration
		size  int64
		end   time.Duration // without latency
	}
	for _, tc := range []struct {
		name string
		bw   float64
		xfs  []xfer
	}{
		// TestLateArrivalFairShare.
		{"late arrival", 1 * GB, []xfer{{0, 2 * GB, 3 * time.Second}, {time.Second, 1 * GB, 3 * time.Second}}},
		// TestShortTransferFinishesFirstAndSpeedsUpLongOne.
		{"short first", 2 * GB, []xfer{{0, 4 * GB, 2500 * time.Millisecond}, {0, 1 * GB, time.Second}}},
		// t=0..1 A alone; 1..2 A,B at 1/2 (B has 0.5GB left at 2);
		// 2..3.5 A,B,C at 1/3 (B done); 3.5..4.5 A,C at 1/2 (C done); A alone to 5.
		{"three staggered", 1 * GB, []xfer{
			{0, 3 * GB, 5 * time.Second},
			{time.Second, 1 * GB, 3500 * time.Millisecond},
			{2 * time.Second, 1 * GB, 4500 * time.Millisecond},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.NewVirtual()
			ends := make([]time.Duration, len(tc.xfs))
			staggered := 0
			before := simclock.EventCount()
			clk.Run(func() {
				l := NewLink(clk, "wakes", tc.bw, lat)
				wg := simclock.NewWaitGroup(clk)
				for i, x := range tc.xfs {
					if x.start > 0 {
						staggered++
					}
					wg.Add(1)
					clk.Go(func() {
						defer wg.Done()
						clk.Sleep(x.start)
						mustTransfer(t, l, x.size)
						ends[i] = clk.Now()
					})
				}
				wg.Wait()
			})
			// Besides the transfers' own wakes: one per staggered start
			// and one for the root leaving wg.Wait.
			n := len(tc.xfs)
			if got, want := simclock.EventCount()-before, uint64(n+staggered+1); got != want {
				t.Errorf("%d transfers cost %d wakes, want %d: %d completion + %d staggered starts + 1 join",
					n, got, want, n, staggered)
			}
			for i, x := range tc.xfs {
				if want := x.end + lat; absDur(ends[i]-want) > time.Microsecond {
					t.Errorf("transfer %d finished at %v, want %v", i, ends[i], want)
				}
			}
		})
	}
}

func TestLinkConservesBandwidthProperty(t *testing.T) {
	// Property: for any set of concurrent transfers, total bytes moved
	// divided by the makespan never exceeds the link bandwidth, and the
	// makespan is at least totalBytes/bandwidth.
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		clk := simclock.NewVirtual()
		ok := true
		clk.Run(func() {
			const bw = 1 * GB
			l := NewLink(clk, "prop", bw, 0)
			wg := simclock.NewWaitGroup(clk)
			var total int64
			for _, s := range sizes {
				size := (int64(s) + 1) * (GB / 64)
				total += size
				wg.Add(1)
				clk.Go(func() {
					defer wg.Done()
					mustTransfer(t, l, size)
				})
			}
			wg.Wait()
			makespan := clk.Now().Seconds()
			ideal := float64(total) / bw
			// Makespan must be >= ideal (can't beat the link) and,
			// since all transfers start at t=0 and the link is
			// work-conserving, equal to ideal within rounding.
			if makespan < ideal*0.999 || makespan > ideal*1.01+0.001 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEstimateMatchesIdleTransfer(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "est", 4*GB, time.Millisecond)
		est := l.Estimate(8 * GB)
		want := 2*time.Second + time.Millisecond
		if absDur(est-want) > time.Millisecond {
			t.Errorf("Estimate = %v, want ~%v", est, want)
		}
		if l.Estimate(0) != 0 {
			t.Error("Estimate(0) != 0")
		}
	})
}

func TestEstimateAccountsForLoad(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "estload", 2*GB, 0)
		wg := simclock.NewWaitGroup(clk)
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			mustTransfer(t, l, 20*GB)
		})
		clk.Sleep(10 * time.Millisecond) // let it start
		// One transfer active: a new one would get half the bandwidth.
		est := l.Estimate(1 * GB)
		if want := time.Second; absDur(est-want) > 50*time.Millisecond {
			t.Errorf("loaded Estimate = %v, want ~%v", est, want)
		}
		wg.Wait()
	})
}

func TestLinkStats(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "stats", 1*GB, 0)
		wg := simclock.NewWaitGroup(clk)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				mustTransfer(t, l, GB/4)
			})
		}
		wg.Wait()
		bytes, n, peak := l.Stats()
		if bytes != 3*GB/4 {
			t.Errorf("bytes = %d, want %d", bytes, 3*GB/4)
		}
		if n != 3 {
			t.Errorf("transfers = %d, want 3", n)
		}
		if peak < 1 || peak > 3 {
			t.Errorf("peak = %d, want in [1,3]", peak)
		}
	})
}

func TestPathSequentialHops(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		a := NewLink(clk, "a", 1*GB, 0)
		b := NewLink(clk, "b", 2*GB, 0)
		p := Path{a, b}
		d := mustTransfer(t, p, 2*GB)
		want := 2*time.Second + time.Second
		if absDur(d-want) > 10*time.Millisecond {
			t.Errorf("path transfer took %v, want ~%v", d, want)
		}
		if est := p.Estimate(2 * GB); absDur(est-want) > 10*time.Millisecond {
			t.Errorf("path estimate = %v, want ~%v", est, want)
		}
	})
}

func TestNewLinkRejectsBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLink with zero bandwidth did not panic")
		}
	}()
	NewLink(simclock.NewVirtual(), "bad", 0, 0)
}

func TestDurationForRoundsUp(t *testing.T) {
	if d := durationFor(1, 1e9); d != time.Nanosecond {
		t.Errorf("durationFor(1B, 1GB/s) = %v, want 1ns", d)
	}
	if d := durationFor(1, 1e12); d < time.Nanosecond {
		t.Errorf("sub-ns durations must round up to 1ns, got %v", d)
	}
}

// mustTransfer is TryTransfer on a link or path for tests that inject no
// fault: an error fails the test, the simulated duration is returned.
func mustTransfer(t *testing.T, x interface {
	TryTransfer(int64) (time.Duration, error)
}, size int64) time.Duration {
	t.Helper()
	d, err := x.TryTransfer(size)
	if err != nil {
		t.Errorf("TryTransfer(%d): %v", size, err)
	}
	return d
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

var _ = math.MaxInt64 // keep math import when assertions change

func TestInterceptorFailsTransfer(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "nvme", 1*GB, 10*time.Millisecond)
		boom := errors.New("link down")
		calls := 0
		l.SetInterceptor(func(link string, size int64) FaultDecision {
			calls++
			if link != "nvme" || size != 1*GB {
				t.Errorf("interceptor saw (%q, %d)", link, size)
			}
			return FaultDecision{Err: boom}
		})
		d, err := l.TryTransfer(1 * GB)
		if !errors.Is(err, boom) {
			t.Fatalf("TryTransfer = %v, want wrapped link-down", err)
		}
		// Latency is charged, bandwidth is not: a failed transfer must not
		// take transfer time or leave residue in the active set.
		if absDur(d-10*time.Millisecond) > time.Millisecond {
			t.Errorf("failed transfer consumed %v, want ~latency", d)
		}
		if l.InFlight() != 0 {
			t.Error("failed transfer left the link busy")
		}
		if calls != 1 {
			t.Errorf("interceptor called %d times", calls)
		}
		l.SetInterceptor(nil)
		if _, err := l.TryTransfer(1 * GB); err != nil {
			t.Errorf("after removing interceptor: %v", err)
		}
	})
}

func TestInterceptorScaleSlowsTransfer(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "pcie", 1*GB, 0)
		l.SetInterceptor(func(string, int64) FaultDecision {
			return FaultDecision{BandwidthScale: 0.1}
		})
		d, err := l.TryTransfer(1 * GB)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d, 10*time.Second; absDur(got-want) > 10*time.Millisecond {
			t.Errorf("10%%-scaled 1GB took %v, want ~%v", got, want)
		}
	})
}

func TestInterceptorDelayAdds(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		l := NewLink(clk, "pcie", 1*GB, 0)
		l.SetInterceptor(func(string, int64) FaultDecision {
			return FaultDecision{Delay: 250 * time.Millisecond}
		})
		d, err := l.TryTransfer(1 * GB)
		if err != nil {
			t.Fatal(err)
		}
		want := time.Second + 250*time.Millisecond
		if absDur(d-want) > time.Millisecond {
			t.Errorf("delayed transfer took %v, want ~%v", d, want)
		}
	})
}
