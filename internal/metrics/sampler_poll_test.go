package metrics

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"score/internal/simclock"
)

// TestSamplerPollsInNameOrder: probes are polled, and their samples
// delivered, in name order whatever order they were registered in —
// including one registered after Start — and every value lands under
// its own name.
func TestSamplerPollsInNameOrder(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		s := NewSampler(clk, time.Millisecond, 0)
		values := map[string]float64{"m": 1, "z": 2, "b": 3, "a": 4}
		register := func(name string) { s.Register(name, func() float64 { return values[name] }) }
		var mu sync.Mutex // sink runs on the sampler task
		ticks := map[time.Duration][]string{}
		s.SetCounterSink(func(name string, at time.Duration, v float64) {
			mu.Lock()
			defer mu.Unlock()
			ticks[at] = append(ticks[at], name)
			if v != values[name] {
				t.Errorf("sink got %s = %v at %v, want %v", name, v, at, values[name])
			}
		})
		register("m")
		register("z")
		register("b")
		s.Start()
		clk.Sleep(2*time.Millisecond + time.Microsecond)
		register("a")
		clk.Sleep(2 * time.Millisecond)
		s.Stop()

		mu.Lock()
		defer mu.Unlock()
		if got := ticks[time.Millisecond]; !slices.Equal(got, []string{"b", "m", "z"}) {
			t.Errorf("first tick polled %v, want [b m z]", got)
		}
		if got := ticks[3*time.Millisecond]; !slices.Equal(got, []string{"a", "b", "m", "z"}) {
			t.Errorf("tick after the late registration polled %v, want [a b m z]", got)
		}
		for name, pts := range s.Series() {
			for _, p := range pts {
				if p.Value != values[name] {
					t.Errorf("series %s holds %v at %v, want %v", name, p.Value, p.At, values[name])
				}
			}
		}
	})
}

// TestSamplerStopOverlappingATick holds a tick mid-poll — the sampler's
// lock released — until Stop's final sample is polling too, on the real
// clock where the two can overlap. Run under -race this is the check
// that the two samples share no scratch; in any mode, every value must
// still land under its own name, twice.
func TestSamplerStopOverlappingATick(t *testing.T) {
	clk := simclock.NewReal(1)
	s := NewSampler(clk, time.Millisecond, 0)
	tickPolling, stopPolling := make(chan struct{}), make(chan struct{})
	var stopping atomic.Bool
	const probes = 64
	for i := 0; i < probes; i++ {
		i := i
		s.Register(fmt.Sprintf("p%02d", i), func() float64 {
			switch {
			case i > 0:
			case stopping.Load():
				close(stopPolling)
			default:
				close(tickPolling)
				<-stopPolling
			}
			return float64(i)
		})
	}
	var delivered sync.WaitGroup // Stop does not wait for the tick it overlapped
	delivered.Add(2 * probes)
	s.SetCounterSink(func(name string, at time.Duration, v float64) {
		defer delivered.Done()
		if want := fmt.Sprintf("p%02.0f", v); name != want {
			t.Errorf("sink got %s = %v, want it under %s", name, v, want)
		}
	})
	s.Start()
	<-tickPolling
	stopping.Store(true)
	s.Stop()
	delivered.Wait()
	for name, pts := range s.Series() {
		if len(pts) != 2 {
			t.Errorf("series %s holds %d samples, want the tick's and Stop's", name, len(pts))
		}
		for _, p := range pts {
			if want := fmt.Sprintf("p%02.0f", p.Value); name != want {
				t.Errorf("series %s holds %v, want it under %s", name, p.Value, want)
			}
		}
	}
}
