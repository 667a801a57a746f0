package score_test

import (
	"io"
	"runtime"
	"testing"
	"time"

	"score"
	"score/internal/metrics"
	"score/internal/slo"
	"score/internal/trace"
)

// observerShot runs one small adjoint shot on virtual payloads — one
// node × 8 GPUs, every restore hinted, reverse order, a GPU cache a
// sixth of each rank's snapshots so the run evicts — plain or with every
// observer on (tracing, 10 ms sampling, the shot SLOs, a trace export),
// and returns what it allocated.
func observerShot(t *testing.T, observed bool) (mallocs, bytes uint64) {
	t.Helper()
	const (
		ranks    = 8
		versions = 192
		size     = 96 << 20
		interval = 10 * time.Millisecond
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	sopts := []score.Option{score.WithGPUsPerNode(ranks)}
	if observed {
		sopts = append(sopts, score.WithTracing(), score.WithSampling(interval))
	}
	sim, err := score.NewSim(sopts...)
	if err != nil {
		t.Fatal(err)
	}
	copts := []score.ClientOption{
		score.WithGPUCache(versions * size / 6), score.WithHostCache(versions * size / 2),
		score.WithAsyncHostInit(), score.WithDiscardAfterRestore(),
	}
	if observed {
		eng, err := sim.NewSLOEngine(slo.ShotObjectives()...)
		if err != nil {
			t.Fatal(err)
		}
		copts = append(copts, score.WithSLO(eng))
	}
	sim.Run(func() {
		wg := sim.NewWaitGroup()
		for r := 0; r < ranks; r++ {
			c, err := sim.NewClient(0, r, copts...)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				for v := int64(versions - 1); v >= 0; v-- {
					c.PrefetchEnqueue(v)
				}
				for v := int64(0); v < versions; v++ {
					c.Compute(interval)
					if err := c.CheckpointVirtual(v, size+v<<12); err != nil {
						t.Error(err)
						return
					}
				}
				c.PrefetchStart()
				for v := int64(versions - 1); v >= 0; v-- {
					if _, err := c.Restart(v); err != nil {
						t.Error(err)
						return
					}
					c.Compute(interval)
				}
			})
		}
		wg.Wait()
	})
	if observed {
		if err := sim.WriteTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
		if sim.Tracer().Len() == 0 || len(sim.SampledSeries()) == 0 {
			t.Fatal("the observed shot recorded nothing")
		}
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestObserverTaxBudget gates what the observers cost on top of the run
// they watch, as allocation counts (ROADMAP Direction 2(b)): the same
// shot, plain and fully observed. Measured when the gate was set: 1.34×
// the allocations and 6.9× the bytes, against 13.4× and 40× with the
// reflective export and append-grown stores this replaced; each bound
// sits at least 1.5× from both. A third of the observed bytes here is
// the sampler's fixed 64 KiB per series, so at paper scale (bench/,
// observed_rtm against rtm_hinted) the same code reads 1.3× and 4.2×.
func TestObserverTaxBudget(t *testing.T) {
	const maxMallocRatio, maxByteRatio = 2.1, 12.0
	plainMallocs, plainBytes := observerShot(t, false)
	obsMallocs, obsBytes := observerShot(t, true)
	mallocRatio := float64(obsMallocs) / float64(plainMallocs)
	byteRatio := float64(obsBytes) / float64(plainBytes)
	t.Logf("observer tax: %.2f× allocations (%d observed / %d plain), %.2f× bytes (%.1f MB / %.1f MB)",
		mallocRatio, obsMallocs, plainMallocs, byteRatio, float64(obsBytes)/1e6, float64(plainBytes)/1e6)
	if mallocRatio > maxMallocRatio {
		t.Errorf("observed shot makes %.2f× the plain shot's allocations, budget %.1f×", mallocRatio, maxMallocRatio)
	}
	if byteRatio > maxByteRatio {
		t.Errorf("observed shot allocates %.2f× the plain shot's bytes, budget %.1f×", byteRatio, maxByteRatio)
	}
}

// TestNilObserversAllocateNothing: instrumented code calls the tracer
// and the SLO engine unconditionally, so with the observers off — a nil
// *trace.Tracer, a nil *slo.Engine — every call must be free.
func TestNilObserversAllocateNothing(t *testing.T) {
	var tr *trace.Tracer
	var eng *slo.Engine
	name, category := "checkpoint 7", "checkpoint"
	rec := metrics.CritPathRecord{Op: metrics.CritRestore, Version: 7, Total: time.Second,
		Components: map[string]time.Duration{metrics.CompXferSSD: time.Second}}
	calls := map[string]func(){
		"Tracer.Span":            func() { tr.Span(3, trace.TrackApp, category, name)() },
		"Tracer.SpanFlow":        func() { tr.SpanFlow(3, trace.TrackD2H, category, name, 42)() },
		"Tracer.Record":          func() { tr.Record(3, trace.TrackH2F, category, name, time.Millisecond, time.Second) },
		"Tracer.Counter":         func() { tr.Counter(0, name, time.Millisecond, 4096) },
		"Tracer.Lifecycle":       func() { tr.Lifecycle(3, 7, trace.LDurable, "ssd", name) },
		"Engine.ObserveCritPath": func() { eng.ObserveCritPath(rec) },
		"Engine.ObserveDrain":    func() { eng.ObserveDrain(true) },
		"Engine.Observe":         func() { eng.Observe(slo.KindHitRate, false, rec.Components) },
	}
	for what, call := range calls {
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("%s on a nil receiver allocates %.0f times per call, want 0", what, n)
		}
	}
}
