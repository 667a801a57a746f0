package experiments

import (
	"testing"
	"time"

	"score/internal/metrics"
	"score/internal/slo"
	"score/internal/trace"
)

// fixedDrops is a counter source that has always dropped n samples.
type fixedDrops int64

func (fixedDrops) SetCounterWindow(int)                                               {}
func (d fixedDrops) CounterDropped() int64                                            { return int64(d) }
func (fixedDrops) EachCounter(func(id int, name string, at time.Duration, v float64)) {}

// TestEndShotLandsRunScopedCounters: endShot writes the run-scoped
// counters, the SLO engine's alert transitions and the trace rings' drop
// counts, into the first rank's summary and nowhere else, before OnShot
// sees the result.
func TestEndShotLandsRunScopedCounters(t *testing.T) {
	// drainShot runs the preemption objectives over eight drains, one
	// per second of engine time: the first three miss their deadline and
	// the rest meet it, so the alert fires and then resolves.
	drainShot := func(t *testing.T) (ShotResult, slo.Report) {
		t.Helper()
		var now time.Duration
		clock := func() time.Duration { return now }
		tracer := trace.New(clock)
		eng, err := newSLOEngine(clock, slo.PreemptObjectives(), tracer)
		if err != nil {
			t.Fatal(err)
		}
		const drains = 8
		for i := 0; i < drains; i++ {
			now = time.Duration(i) * time.Second
			eng.ObserveDrain(i >= 3)
		}
		res := ShotResult{Config: ShotConfig{Label: "drains"}, PerRank: []RankResult{
			{Rank: 0, Summary: metrics.Summary{Drains: drains}}, {Rank: 1},
		}}
		var seen *ShotResult
		obs := Observers{OnShot: func(r ShotResult) { seen = &r }}
		if err := obs.endShot(&res, eng, tracer); err != nil {
			t.Fatal(err)
		}
		if seen == nil || res.SLO == nil {
			t.Fatalf("endShot handed OnShot %v and left the report %v", seen, res.SLO)
		}
		return *seen, *res.SLO
	}
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"SLOAlertFired", func(t *testing.T) {
			res, rep := drainShot(t)
			var fired int64
			for _, o := range rep.Objectives {
				fired += o.Fired
			}
			if fired == 0 {
				t.Fatal("three missed drains fired no alert")
			}
			if got := res.PerRank[0].Summary.SLOAlertsFired; got != fired {
				t.Errorf("rank 0 SLOAlertsFired = %d, want the report's %d", got, fired)
			}
			if got := res.PerRank[1].Summary.SLOAlertsFired; got != 0 {
				t.Errorf("rank 1 SLOAlertsFired = %d, want 0", got)
			}
		}},
		{"SLOAlertResolved", func(t *testing.T) {
			res, rep := drainShot(t)
			var resolved int64
			for _, o := range rep.Objectives {
				resolved += o.Resolved
			}
			if resolved == 0 {
				t.Fatal("five met drains resolved no alert")
			}
			if got := res.PerRank[0].Summary.SLOAlertsResolved; got != resolved {
				t.Errorf("rank 0 SLOAlertsResolved = %d, want the report's %d", got, resolved)
			}
			if got := res.PerRank[1].Summary.SLOAlertsResolved; got != 0 {
				t.Errorf("rank 1 SLOAlertsResolved = %d, want 0", got)
			}
		}},
		{"TelemetryDrops", func(t *testing.T) {
			tracer := trace.New(func() time.Duration { return 0 })
			tracer.SetCounterSource(fixedDrops(4))
			tracer.SetCapacity(1, 1)
			for i := 0; i < 3; i++ {
				tracer.Record(0, trace.TrackApp, "test", "span", 0, time.Millisecond)
			}
			for v := int64(0); v < trace.DefaultFlightCap+5; v++ {
				tracer.Lifecycle(0, v, trace.LCreated, "", "")
			}
			res := ShotResult{PerRank: []RankResult{{Rank: 0}, {Rank: 1}}}
			var traced string
			obs := Observers{OnTrace: func(label string, _ *trace.Tracer) { traced = label }}
			if err := obs.endShot(&res, nil, tracer); err != nil {
				t.Fatal(err)
			}
			want := metrics.Summary{TraceEventsDropped: 2, TraceCountersDropped: 4, LedgerEventsDropped: 5}
			got := res.PerRank[0].Summary
			if got.TraceEventsDropped != want.TraceEventsDropped || got.TraceCountersDropped != want.TraceCountersDropped ||
				got.LedgerEventsDropped != want.LedgerEventsDropped {
				t.Errorf("rank 0 drops (events, counters, ledger) = (%d, %d, %d), want (%d, %d, %d)",
					got.TraceEventsDropped, got.TraceCountersDropped, got.LedgerEventsDropped,
					want.TraceEventsDropped, want.TraceCountersDropped, want.LedgerEventsDropped)
			}
			if r1 := res.PerRank[1].Summary; r1.TraceEventsDropped != 0 || r1.TraceCountersDropped != 0 || r1.LedgerEventsDropped != 0 {
				t.Errorf("rank 1 holds drop counts (%d, %d, %d), want none",
					r1.TraceEventsDropped, r1.TraceCountersDropped, r1.LedgerEventsDropped)
			}
			if traced != res.Label() {
				t.Errorf("OnTrace got label %q, want %q", traced, res.Label())
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}
