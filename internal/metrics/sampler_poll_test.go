package metrics

import (
	"slices"
	"testing"
	"time"

	"score/internal/simclock"
)

// TestSamplerPollsInNameOrder: probes are polled, and their samples
// stored, in name order whatever order they were registered in —
// including one registered after Start — and every value lands under
// its own name.
func TestSamplerPollsInNameOrder(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		s := NewSampler(clk, time.Millisecond, 0)
		values := map[string]float64{"m": 1, "z": 2, "b": 3, "a": 4}
		ticks := map[time.Duration][]string{} // probes run on the sampler task
		register := func(name string) {
			s.Register(name, func() float64 {
				ticks[clk.Now()] = append(ticks[clk.Now()], name)
				return values[name]
			})
		}
		register("m")
		register("z")
		register("b")
		s.SetCounterWindow(1 << 20)
		s.Start()
		clk.Sleep(2*time.Millisecond + time.Microsecond)
		register("a")
		clk.Sleep(2 * time.Millisecond)
		s.Stop()

		if got := ticks[time.Millisecond]; !slices.Equal(got, []string{"b", "m", "z"}) {
			t.Errorf("first tick polled %v, want [b m z]", got)
		}
		if got := ticks[3*time.Millisecond]; !slices.Equal(got, []string{"a", "b", "m", "z"}) {
			t.Errorf("tick after the late registration polled %v, want [a b m z]", got)
		}
		exported := map[time.Duration][]string{}
		s.EachCounter(func(_ int, name string, at time.Duration, v float64) {
			exported[at] = append(exported[at], name)
			if v != values[name] {
				t.Errorf("counter %s = %v at %v, want %v", name, v, at, values[name])
			}
		})
		for at, names := range ticks {
			if !slices.Equal(exported[at], names) {
				t.Errorf("counters at %v are %v, polled %v", at, exported[at], names)
			}
		}
		for name, pts := range s.Series() {
			if want := map[bool]int{false: 5, true: 3}[name == "a"]; len(pts) != want {
				t.Errorf("series %s holds %d samples, want %d", name, len(pts), want)
			}
			for _, p := range pts {
				if p.Value != values[name] {
					t.Errorf("series %s holds %v at %v, want %v", name, p.Value, p.At, values[name])
				}
			}
		}
	})
}
