package slo

import (
	"encoding/json"
	"testing"
	"time"

	"score/internal/metrics"
)

func restoreObjective() Objective {
	return Objective{
		Name:      "restore-p99",
		Class:     "test",
		Kind:      KindRestoreLatency,
		Goal:      0.99,
		Threshold: 10 * time.Millisecond,
		Windows:   []Window{{Long: 100 * time.Millisecond, Short: 20 * time.Millisecond, Rate: 4}},
	}
}

// restoreRec builds a restore critpath record completing at start+total.
func restoreRec(start, total time.Duration, comps map[string]time.Duration) metrics.CritPathRecord {
	return metrics.CritPathRecord{Op: metrics.CritRestore, Start: start, Total: total, Components: comps}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := range kindNames {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}

func TestObjectiveValidation(t *testing.T) {
	now := func() time.Duration { return 0 }
	bad := []Objective{
		{},                     // empty name
		{Name: "x", Goal: 1.5}, // goal out of range
		{Name: "x", Goal: 0.9, Kind: KindRestoreLatency, Windows: []Window{{Long: time.Second, Short: time.Millisecond, Rate: 2}}}, // latency without threshold
		{Name: "x", Goal: 0.9, Kind: KindHitRate}, // no windows
		{Name: "x", Goal: 0.9, Kind: KindHitRate, Windows: []Window{{Long: time.Millisecond, Short: time.Second, Rate: 2}}}, // short > long
		{Name: "x", Goal: 0.9, Kind: KindHitRate, Windows: []Window{{Long: time.Second, Short: time.Millisecond}}},          // zero rate
	}
	for i, o := range bad {
		if _, err := NewEngine(now, o); err == nil {
			t.Errorf("objective %d accepted: %+v", i, o)
		}
	}
	if _, err := NewEngine(now, restoreObjective(), restoreObjective()); err == nil {
		t.Error("duplicate objective names accepted")
	}
	if _, err := NewEngine(nil, restoreObjective()); err == nil {
		t.Error("nil clock accepted")
	}
}

// TestBurnRateFireAndResolve walks the canonical alert lifecycle: a
// healthy stream, a straggler burst that fires with attribution, and a
// recovery that resolves.
func TestBurnRateFireAndResolve(t *testing.T) {
	var now time.Duration
	eng, err := NewEngine(func() time.Duration { return now }, restoreObjective())
	if err != nil {
		t.Fatal(err)
	}
	var seen []Alert
	eng.SetAlertSink(func(a Alert) { seen = append(seen, a) })

	// Healthy phase: 20 fast restores, 5 ms apart.
	for i := 0; i < 20; i++ {
		eng.ObserveCritPath(restoreRec(time.Duration(i)*5*time.Millisecond, time.Millisecond, nil))
	}
	// Straggler burst: slow restores dominated by the PFS leg.
	comps := map[string]time.Duration{
		metrics.CompXferPFS:      40 * time.Millisecond,
		metrics.CompRetryBackoff: 9 * time.Millisecond,
	}
	for i := 0; i < 4; i++ {
		eng.ObserveCritPath(restoreRec(150*time.Millisecond+time.Duration(i)*5*time.Millisecond, 50*time.Millisecond, comps))
	}
	if len(seen) == 0 {
		t.Fatal("no alert fired during the straggler burst")
	}
	fire := seen[0]
	if !fire.Fired() || fire.Objective != "restore-p99" {
		t.Fatalf("first transition not a restore-p99 fire: %+v", fire)
	}
	if fire.Attribution != "xfer-pfs" {
		t.Errorf("fire attribution = %q, want xfer-pfs", fire.Attribution)
	}
	if fire.Burn < 4 {
		t.Errorf("fire burn %v below the window rate", fire.Burn)
	}

	// Recovery: fast restores long after the burst slid out of both
	// windows.
	for i := 0; i < 4; i++ {
		eng.ObserveCritPath(restoreRec(500*time.Millisecond+time.Duration(i)*5*time.Millisecond, time.Millisecond, nil))
	}
	eng.Finalize()

	rep := eng.Report()
	if len(rep.Objectives) != 1 {
		t.Fatalf("report has %d objectives", len(rep.Objectives))
	}
	o := rep.Objectives[0]
	if o.Events != 28 || o.Good != 24 {
		t.Errorf("events/good = %d/%d, want 28/24", o.Events, o.Good)
	}
	if o.Fired != 1 || o.Resolved != 1 || o.Firing {
		t.Errorf("fired/resolved/firing = %d/%d/%v, want 1/1/false", o.Fired, o.Resolved, o.Firing)
	}
	if o.Met() {
		t.Error("objective reported met despite 4/28 bad events against a 0.99 goal")
	}
	if o.BudgetRemaining >= 0 {
		t.Errorf("budget remaining %v not negative after overspend", o.BudgetRemaining)
	}
	if o.Attribution != "xfer-pfs" {
		t.Errorf("run attribution = %q, want xfer-pfs", o.Attribution)
	}
	if !rep.Breached() {
		t.Error("report not breached despite a fired alert")
	}
	if len(rep.Alerts) != len(seen) {
		t.Errorf("report holds %d alerts, sink saw %d", len(rep.Alerts), len(seen))
	}
}

// TestSameInstantCommutes: observations landing at one virtual instant
// must evaluate identically regardless of arrival order — the
// determinism contract under parallel wake.
func TestSameInstantCommutes(t *testing.T) {
	run := func(reverse bool) string {
		var now time.Duration
		eng, err := NewEngine(func() time.Duration { return now }, restoreObjective())
		if err != nil {
			t.Fatal(err)
		}
		// Mixed batch at t = 50 ms: some good, some bad.
		batch := []metrics.CritPathRecord{
			restoreRec(49*time.Millisecond, time.Millisecond, nil),
			restoreRec(30*time.Millisecond, 20*time.Millisecond, map[string]time.Duration{metrics.CompXferSSD: 19 * time.Millisecond}),
			restoreRec(48*time.Millisecond, 2*time.Millisecond, nil),
			restoreRec(25*time.Millisecond, 25*time.Millisecond, map[string]time.Duration{metrics.CompXferSSD: 24 * time.Millisecond}),
		}
		if reverse {
			for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
				batch[i], batch[j] = batch[j], batch[i]
			}
		}
		for _, rec := range batch {
			eng.ObserveCritPath(rec)
		}
		eng.ObserveCritPath(restoreRec(60*time.Millisecond, time.Millisecond, nil))
		eng.Finalize()
		j, err := json.Marshal(eng.Report())
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("same-instant batches diverged by arrival order:\n%s\nvs\n%s", a, b)
	}
}

// TestHitRateRouting: restore records touching a deep tier count as
// misses; GPU/host-served restores count as hits.
func TestHitRateRouting(t *testing.T) {
	var now time.Duration
	obj := Objective{
		Name: "hit", Class: "test", Kind: KindHitRate, Goal: 0.5,
		Windows: []Window{{Long: 100 * time.Millisecond, Short: 20 * time.Millisecond, Rate: 1.5}},
	}
	eng, err := NewEngine(func() time.Duration { return now }, obj)
	if err != nil {
		t.Fatal(err)
	}
	eng.ObserveCritPath(restoreRec(0, time.Millisecond, map[string]time.Duration{metrics.CompXferPCIe: time.Millisecond}))
	eng.ObserveCritPath(restoreRec(10*time.Millisecond, 5*time.Millisecond, map[string]time.Duration{metrics.CompXferSSD: 4 * time.Millisecond}))
	eng.Finalize()
	o := eng.Report().Objectives[0]
	if o.Events != 2 || o.Good != 1 {
		t.Fatalf("hit-rate events/good = %d/%d, want 2/1", o.Events, o.Good)
	}
	if o.Attribution != "xfer-ssd" {
		t.Errorf("miss attribution = %q, want xfer-ssd", o.Attribution)
	}
}

// TestDrainObjective: the ratio kind fed by ObserveDrain on a manual
// clock.
func TestDrainObjective(t *testing.T) {
	var now time.Duration
	objs := PreemptObjectives()
	eng, err := NewEngine(func() time.Duration { return now }, objs...)
	if err != nil {
		t.Fatal(err)
	}
	met := []bool{false, false, false, true, true, true, true, true, true}
	for i, m := range met {
		now = time.Duration(i) * time.Second
		eng.ObserveDrain(m)
	}
	eng.Finalize()
	o := eng.Report().Objectives[0]
	if o.Events != int64(len(met)) || o.Good != 6 {
		t.Fatalf("drain events/good = %d/%d, want %d/6", o.Events, o.Good, len(met))
	}
	if o.Fired == 0 {
		t.Error("three consecutive missed deadlines did not fire the drain objective")
	}
	if o.Resolved == 0 {
		t.Error("six consecutive met deadlines did not resolve the drain objective")
	}
}

// TestNilEngineIsFree: every method on a nil engine is a no-op.
func TestNilEngine(t *testing.T) {
	var eng *Engine
	eng.ObserveCritPath(restoreRec(0, time.Millisecond, nil))
	eng.ObserveDrain(true)
	eng.Observe(KindHitRate, true, nil)
	eng.SetAlertSink(func(Alert) {})
	eng.Finalize()
	if rep := eng.Report(); len(rep.Objectives) != 0 || rep.Breached() {
		t.Errorf("nil engine report not empty: %+v", rep)
	}
}

func TestDominantComps(t *testing.T) {
	cases := []struct {
		comps map[string]time.Duration
		want  string
	}{
		{nil, ""},
		{map[string]time.Duration{"xfer-ssd": time.Second}, "xfer-ssd"},
		// One component ≥ 2/3 of the total stands alone.
		{map[string]time.Duration{"xfer-pfs": 8 * time.Second, "retry-backoff": time.Second}, "xfer-pfs"},
		// Split cost names the top two.
		{map[string]time.Duration{"xfer-pfs": 3 * time.Second, "retry-backoff": 2 * time.Second, "alloc": time.Second}, "xfer-pfs + retry-backoff"},
		// Ties break alphabetically, not by component index.
		{map[string]time.Duration{"xfer-ssd": time.Second, "alloc": time.Second}, "alloc + xfer-ssd"},
	}
	for i, c := range cases {
		comps := metrics.CompsOf(c.comps)
		if got := dominantComps(&comps); got != c.want {
			t.Errorf("case %d: dominantComps = %q, want %q", i, got, c.want)
		}
	}
}

func TestCheckConservation(t *testing.T) {
	rep := Report{Objectives: []ObjectiveResult{{
		Objective: restoreObjective(), Events: 10, Good: 9, Fired: 1, Resolved: 1,
	}}}
	// Clean books: no warnings, no error.
	warns, err := CheckConservation(rep, map[Kind]int64{KindRestoreLatency: 10}, 1, 1, 0)
	if err != nil || len(warns) != 0 {
		t.Fatalf("clean reconciliation failed: warns=%v err=%v", warns, err)
	}
	// Mismatch with zero drops is an error.
	if _, err := CheckConservation(rep, map[Kind]int64{KindRestoreLatency: 12}, 1, 1, 0); err == nil {
		t.Error("event undercount with zero drops did not error")
	}
	if _, err := CheckConservation(rep, map[Kind]int64{KindRestoreLatency: 10}, 0, 1, 0); err == nil {
		t.Error("ledger fire mismatch with zero drops did not error")
	}
	// Same mismatches degrade to warnings once the ledger dropped events.
	warns, err = CheckConservation(rep, map[Kind]int64{KindRestoreLatency: 12}, 0, 1, 5)
	if err != nil {
		t.Errorf("degraded reconciliation errored: %v", err)
	}
	if len(warns) != 2 {
		t.Errorf("degraded reconciliation produced %d warnings, want 2: %v", len(warns), warns)
	}
}

// TestHitRateStagesFromTheRecord: a hit-rate objective stages a restore
// straight from its record. A GPU-served restore is a hit and allocates
// nothing; a miss stages exactly the deep components it charged, none of
// the cache-side ones.
func TestHitRateStagesFromTheRecord(t *testing.T) {
	obj := Objective{
		Name: "hit", Class: "test", Kind: KindHitRate, Goal: 0.5,
		Windows: []Window{{Long: 100 * time.Millisecond, Short: 20 * time.Millisecond, Rate: 1.5}},
	}
	eng, err := NewEngine(func() time.Duration { return 0 }, obj, restoreObjective())
	if err != nil {
		t.Fatal(err)
	}
	gpu := restoreRec(0, time.Millisecond, map[string]time.Duration{
		metrics.CompGPUWait: 400 * time.Microsecond, metrics.CompCopyD2D: 600 * time.Microsecond})
	if n := testing.AllocsPerRun(100, func() { eng.ObserveCritPath(gpu) }); n != 0 {
		t.Errorf("a GPU-served restore record allocates %v times, want 0", n)
	}

	eng.ObserveCritPath(restoreRec(0, 9*time.Millisecond, map[string]time.Duration{
		metrics.CompXferSSD: 2 * time.Millisecond, metrics.CompXferPFS: 3 * time.Millisecond,
		metrics.CompXferPCIe: time.Millisecond, metrics.CompRetryBackoff: 3 * time.Millisecond}))
	eng.ObserveCritPath(restoreRec(0, 4*time.Millisecond, map[string]time.Duration{
		metrics.CompXferPartner: 4 * time.Millisecond, metrics.CompXferSSD: 0}))
	// The first miss completed past the hits' instant and folded them;
	// the second, earlier one joined its batch.
	st := eng.objs[0]
	want := map[string]time.Duration{
		metrics.CompXferSSD: 2 * time.Millisecond, metrics.CompXferPFS: 3 * time.Millisecond,
		metrics.CompXferPartner: 4 * time.Millisecond}
	if st.pendBad != 2 || st.pendGood != 0 || st.pendComps != metrics.CompsOf(want) {
		t.Errorf("staged %d good, %d bad, comps %v; want 0, 2, %v", st.pendGood, st.pendBad, st.pendComps, want)
	}
}
