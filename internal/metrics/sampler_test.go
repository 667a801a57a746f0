package metrics

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"score/internal/simclock"
)

func TestSamplerTicksOnVirtualClock(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		s := NewSampler(clk, time.Millisecond, 0)
		var gauge atomic.Int64 // probe runs on the sampler task
		s.Register("g", func() float64 { return float64(gauge.Load()) })
		s.Start()
		for i := 1; i <= 5; i++ {
			gauge.Store(int64(i))
			clk.Sleep(time.Millisecond)
		}
		s.Stop()

		pts := s.Series()["g"]
		// Five interval ticks plus the final Stop-time sample.
		if len(pts) < 5 || len(pts) > 6 {
			t.Fatalf("got %d samples, want 5 or 6", len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].At < pts[i-1].At {
				t.Errorf("samples out of order: %v after %v", pts[i].At, pts[i-1].At)
			}
		}
		if last := pts[len(pts)-1]; last.Value != 5 {
			t.Errorf("final sample value = %v, want 5", last.Value)
		}
	})
}

func TestSamplerStopTakesFinalSample(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		s := NewSampler(clk, time.Hour, 0) // interval never elapses
		s.Register("g", func() float64 { return 42 })
		s.Start()
		clk.Sleep(time.Millisecond)
		s.Stop()
		pts := s.Series()["g"]
		if len(pts) != 1 {
			t.Fatalf("got %d samples, want exactly the Stop-time one", len(pts))
		}
		if pts[0].Value != 42 || pts[0].At != time.Millisecond {
			t.Errorf("final sample = %+v, want value 42 at 1ms", pts[0])
		}
		s.Stop() // idempotent
		if got := len(s.Series()["g"]); got != 1 {
			t.Errorf("second Stop added samples: %d", got)
		}
	})
}

func TestSamplerRingCapacity(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		s := NewSampler(clk, time.Millisecond, 4)
		var tick atomic.Int64 // probe runs on the sampler task
		s.Register("g", func() float64 { return float64(tick.Add(1)) })
		s.Start()
		clk.Sleep(10 * time.Millisecond)
		s.Stop()
		pts := s.Series()["g"]
		if len(pts) != 4 {
			t.Fatalf("ring kept %d samples, want capacity 4", len(pts))
		}
		// The ring is recent-biased: the newest sample survives.
		if last := pts[len(pts)-1]; last.Value != float64(tick.Load()) {
			t.Errorf("newest sample value = %v, want %v", last.Value, float64(tick.Load()))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Value != pts[i-1].Value+1 {
				t.Errorf("retained window not contiguous: %v after %v", pts[i].Value, pts[i-1].Value)
			}
		}
	})
}

// TestSamplerCounterWindow: no sample is shown as a counter until a
// window is set; from then on the newest samples are, and the ones
// that fell out are counted.
func TestSamplerCounterWindow(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		s := NewSampler(clk, time.Millisecond, 0)
		var n atomic.Int64 // probe runs on the sampler task
		s.Register("g", func() float64 { return float64(n.Add(1)) })
		s.Start()
		clk.Sleep(2*time.Millisecond + time.Microsecond)
		var got []Sample
		each := func() {
			got = got[:0]
			s.EachCounter(func(_ int, name string, at time.Duration, v float64) {
				if name != "g" {
					t.Errorf("counter named %q, want g", name)
				}
				got = append(got, Sample{At: at, Value: v})
			})
		}
		if each(); len(got) != 0 {
			t.Errorf("counters before a window: %v", got)
		}
		s.SetCounterWindow(3) // the two earlier samples stay outside it
		clk.Sleep(5 * time.Millisecond)
		s.Stop() // ticks at 3 … 7 ms, the final sample at 7.001 ms
		want := []Sample{{6 * time.Millisecond, 6}, {7 * time.Millisecond, 7}, {7*time.Millisecond + time.Microsecond, 8}}
		if each(); !slices.Equal(got, want) {
			t.Errorf("counter window holds %v, want %v", got, want)
		}
		if d := s.CounterDropped(); d != 3 {
			t.Errorf("CounterDropped = %d, want 3 (samples 3 to 5)", d)
		}
		if pts := s.Series()["g"]; len(pts) != 8 {
			t.Errorf("series holds %d samples, want all 8", len(pts))
		}
	})
}

// TestSamplerFreesWhatNoWindowReads: a block of ticks is freed once it
// is older than the series window and, with a counter window set, wholly
// before it; the windows still read what they show.
func TestSamplerFreesWhatNoWindowReads(t *testing.T) {
	for _, tc := range []struct {
		name       string
		capacity   int
		window     int // 0: no counter window
		wantBlocks int
	}{
		{"series window only", 10, 0, 2},
		{"counter window wider than the series window", 10, 8 * tickBlockLen, 5},
		{"series window wider than the counter window", 3 * tickBlockLen, 10, 4},
	} {
		clk := simclock.NewVirtual()
		s := NewSampler(clk, time.Millisecond, tc.capacity)
		taken := 0.0 // probes run on the sampler task
		s.Register("a", func() float64 { taken++; return taken })
		s.Register("b", func() float64 { return -taken })
		if tc.window > 0 {
			s.SetCounterWindow(tc.window)
		}
		const ticks = 10 * tickBlockLen
		clk.Run(func() {
			s.Start()
			clk.Sleep(ticks*time.Millisecond + time.Microsecond)
			s.Stop()
		})
		if got := len(s.blocks); got != tc.wantBlocks {
			t.Errorf("%s: %d blocks held after %d ticks, want %d", tc.name, got, ticks+1, tc.wantBlocks)
		}
		a := s.Series()["a"]
		if len(a) != tc.capacity || a[len(a)-1].Value != ticks+1 || a[0].Value != float64(ticks+2-tc.capacity) {
			t.Errorf("%s: series a holds %d samples, %v … %v", tc.name, len(a), a[0], a[len(a)-1])
		}
		n := 0
		s.EachCounter(func(int, string, time.Duration, float64) { n++ })
		if n != tc.window {
			t.Errorf("%s: counter window shows %d samples, want %d", tc.name, n, tc.window)
		}
	}
}
