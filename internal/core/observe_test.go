package core

import (
	"sync"
	"testing"
	"time"

	"score/internal/metrics"
	"score/internal/simclock"
)

// TestScoreProbesShareOneScanPerTick: the two score-mean series come
// from one ScoreSummary scan per simulated instant, and that scan is the
// tick's own — never the previous tick's. A third probe scans the cache
// directly at every tick (polled last: "zz" sorts after the client's
// names, and nothing else runs during a virtual-clock tick) and the
// series must agree with it at every instant.
func TestScoreProbesShareOneScanPerTick(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		s := metrics.NewSampler(clk, time.Millisecond, 0)
		r.client.RegisterProbes(s, "c")
		type means struct{ p, s float64 }
		var mu sync.Mutex // probes and sink run on the sampler task
		direct, sampled := map[time.Duration]means{}, map[time.Duration]means{}
		s.Register("zz.direct", func() float64 {
			p, sc := r.client.gpuC.ScoreSummary()
			mu.Lock()
			direct[clk.Now()] = means{p, sc}
			mu.Unlock()
			return 0
		})
		s.SetCounterSink(func(name string, at time.Duration, v float64) {
			mu.Lock()
			defer mu.Unlock()
			m := sampled[at]
			switch name {
			case "c.cache.gpu.score_p_mean":
				m.p = v
			case "c.cache.gpu.score_s_mean":
				m.s = v
			}
			sampled[at] = m
		})
		s.Start()

		const n = 12
		for i := n - 1; i >= 0; i-- {
			r.client.PrefetchEnqueue(ID(i))
		}
		for i := ID(0); i < n; i++ {
			if err := r.client.Checkpoint(i, pay(1*MB)); err != nil {
				t.Fatal(err)
			}
			r.gpu.Compute(time.Millisecond)
		}
		r.client.PrefetchStart()
		for i := ID(n - 1); i >= 0; i-- {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatal(err)
			}
			r.gpu.Compute(3 * time.Millisecond)
		}
		s.Stop()

		mu.Lock()
		defer mu.Unlock()
		if len(direct) < n {
			t.Fatalf("only %d ticks sampled", len(direct))
		}
		distinct := map[means]bool{}
		for at, want := range direct {
			if got := sampled[at]; got != want {
				t.Errorf("at %v the score series read %+v, a direct scan %+v", at, got, want)
			}
			distinct[want] = true
		}
		if len(distinct) < 3 {
			t.Errorf("score means took only %d distinct values over %d ticks; the run does not exercise the memo", len(distinct), len(direct))
		}
	})
}
