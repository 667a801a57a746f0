package metrics

import (
	"slices"
	"sync"
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
