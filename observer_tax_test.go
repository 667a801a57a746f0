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
// node × 8 GPUs, 192 versions each, every restore hinted, reverse order,
// a GPU cache a sixth of each rank's snapshots so the run evicts — plain
// or with every observer on (tracing, 10 ms sampling, the shot SLOs, a
// trace export), and returns the simulation and what the shot allocated.
func observerShot(t *testing.T, observed bool) (sim *score.Sim, mallocs, bytes uint64) {
	return observerShotOf(t, observed, 192)
}

// observerShotOf is observerShot with versions checkpoints per rank.
func observerShotOf(t *testing.T, observed bool, versions int64) (sim *score.Sim, mallocs, bytes uint64) {
	t.Helper()
	const (
		ranks    = 8
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
				for v := versions - 1; v >= 0; v-- {
					c.PrefetchEnqueue(v)
				}
				for v := range versions {
					c.Compute(interval)
					if err := c.CheckpointVirtual(v, size+v<<12); err != nil {
						t.Error(err)
						return
					}
				}
				c.PrefetchStart()
				for v := versions - 1; v >= 0; v-- {
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
	return sim, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestObserverTaxBudget gates what the observers cost on top of the run
// they watch, as allocation counts (ROADMAP Direction 2(b)): the same
// shot, plain and fully observed, and the observed shot's extra mallocs
// and bytes over the plain one. The bounds are absolute, so a cheaper
// plain shot cannot trip them. Measured when they were set (with and
// without -race): 634–771 extra allocations and 5.15–5.18 MB extra
// bytes; the bounds are the highest reading plus 10 %. The largest
// shares of those bytes are the copy of the series this shot reads back
// (1.8 MB), the lifecycle ledger (1.3 MB), the sampler's store (0.9 MB)
// and the span ring (0.9 MB of 72-byte entries; a span stores its
// version, so recording one builds no name).
//
// The same shot at half the versions bounds what the observers allocate
// per version: a span or ledger entry that allocated would add 768
// (8 ranks × 96 versions) to the growth from 96 to 192 versions, which
// reads -20 to 110 (4,253 when each span formatted its name).
func TestObserverTaxBudget(t *testing.T) {
	const maxExtraMallocs, maxExtraBytes, maxGrowth = 850, 5.70e6, 300
	extra := func(versions int64) (mallocs int64, bytes float64) {
		_, plainMallocs, plainBytes := observerShotOf(t, false, versions)
		_, obsMallocs, obsBytes := observerShotOf(t, true, versions)
		mallocs, bytes = int64(obsMallocs)-int64(plainMallocs), float64(obsBytes)-float64(plainBytes)
		t.Logf("observer tax at %d versions: %d extra allocations (%d observed, %d plain), %.2f MB extra bytes (%.2f MB, %.2f MB)",
			versions, mallocs, obsMallocs, plainMallocs, bytes/1e6, float64(obsBytes)/1e6, float64(plainBytes)/1e6)
		return mallocs, bytes
	}
	extraMallocs, extraBytes := extra(192)
	if extraMallocs > maxExtraMallocs {
		t.Errorf("observed shot makes %d allocations more than the plain shot, budget %d", extraMallocs, maxExtraMallocs)
	}
	if extraBytes > maxExtraBytes {
		t.Errorf("observed shot allocates %.2f MB more than the plain shot, budget %.2f MB", extraBytes/1e6, maxExtraBytes/1e6)
	}
	halfMallocs, _ := extra(96)
	if growth := extraMallocs - halfMallocs; growth >= maxGrowth {
		t.Errorf("the observers' extra allocations grow by %d from 96 to 192 versions, budget below %d", growth, maxGrowth)
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
	att := metrics.AttributionOf(rec)
	calls := map[string]func(){
		"Tracer.Span":               func() { tr.Span(3, trace.TrackApp, category, name)() },
		"Tracer.SpanFlow":           func() { tr.SpanFlow(3, trace.TrackD2H, category, name, 7, 42).End() },
		"deferred Tracer.SpanFlow":  func() { defer tr.SpanFlow(3, trace.TrackD2H, category, name, 7, 42).End() },
		"Tracer.Record":             func() { tr.Record(3, trace.TrackH2F, category, name, time.Millisecond, time.Second) },
		"Tracer.Lifecycle":          func() { tr.Lifecycle(3, 7, trace.LDurable, "ssd", name) },
		"Engine.ObserveCritPath":    func() { eng.ObserveCritPath(rec) },
		"Engine.ObserveAttribution": func() { eng.ObserveAttribution(att) },
		"Engine.ObserveDrain":       func() { eng.ObserveDrain(true) },
		"Engine.Observe":            func() { eng.Observe(slo.KindHitRate, false, rec.Components) },
	}
	for what, call := range calls {
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("%s on a nil receiver allocates %.0f times per call, want 0", what, n)
		}
	}
}
