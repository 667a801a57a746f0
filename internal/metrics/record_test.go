package metrics

import (
	"reflect"
	"testing"
	"time"
)

// TestEachRecordLandsInItsOwnFields calls each Recorder method twice, the
// i-th call with arguments scaled by i, and requires the snapshot to hold
// exactly the expected Summary and histogram sample counts: a method that
// writes a neighbour's field, writes one field too many, or assigns where
// it should add fails here. TelemetryDrops is the one that assigns (its
// arguments are totals), so its second call wins.
func TestEachRecordLandsInItsOwnFields(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name  string
		rec   func(r *Recorder, i int64)
		want  Summary
		hists map[string]int64 // sample count per histogram
	}{
		{"Checkpoint", func(r *Recorder, i int64) { r.Checkpoint(10*i, time.Duration(i)*ms) },
			Summary{CheckpointBytes: 30, CheckpointBlocked: 3 * ms, CheckpointOps: 2},
			map[string]int64{HistCheckpoint: 2}},
		{"CheckpointAccepted", func(r *Recorder, i int64) { r.CheckpointAccepted(10 * i) },
			Summary{AcceptedBytes: 30}, nil},
		{"CheckpointRejected", func(r *Recorder, i int64) { r.CheckpointRejected(10 * i) },
			Summary{AcceptedBytes: -30}, nil},
		{"ConserveDurable", func(r *Recorder, i int64) { r.ConserveDurable(10 * i) },
			Summary{DurableBytes: 30, DurableOps: 2}, nil},
		{"ConserveDiscarded", func(r *Recorder, i int64) { r.ConserveDiscarded(10 * i) },
			Summary{DiscardedBytes: 30}, nil},
		{"ConserveLost", func(r *Recorder, i int64) { r.ConserveLost(10 * i) },
			Summary{LostBytes: 30}, nil},
		{"RetryBout recovered", func(r *Recorder, i int64) { r.RetryBout(true) },
			Summary{RetryBoutsRecovered: 2}, nil},
		{"RetryBout exhausted", func(r *Recorder, i int64) { r.RetryBout(false) },
			Summary{RetryBoutsExhausted: 2}, nil},
		{"Restore", func(r *Recorder, i int64) { r.Restore(int(i), 10*i, time.Duration(i)*ms, int(i)+1) },
			Summary{RestoreBytes: 30, RestoreBlocked: 3 * ms, RestoreOps: 2, RestoreSeries: []SeriesPoint{
				{Iteration: 1, Bytes: 10, Blocked: ms, PrefetchDistance: 2},
				{Iteration: 2, Bytes: 20, Blocked: 2 * ms, PrefetchDistance: 3},
			}},
			map[string]int64{HistRestore: 2}},
		{"EvictionWait", func(r *Recorder, i int64) { r.EvictionWait(time.Duration(i) * ms) },
			Summary{EvictionWait: 3 * ms}, map[string]int64{HistEvictionWait: 2}},
		{"Deviation", func(r *Recorder, i int64) { r.Deviation() },
			Summary{DeviationReads: 2}, nil},
		{"Retry", func(r *Recorder, i int64) { r.Retry("ssd") },
			Summary{Retries: map[string]int64{"ssd": 2}}, nil},
		{"Degradation", func(r *Recorder, i int64) { r.Degradation([]string{"", "ssd", "pfs"}[i]) },
			Summary{Degradations: map[string]int64{"ssd": 1, "pfs": 1}}, nil},
		{"TierRecovery", func(r *Recorder, i int64) { r.TierRecovery("host") },
			Summary{TierRecoveries: map[string]int64{"host": 2}}, nil},
		{"PartnerCopy", func(r *Recorder, i int64) { r.PartnerCopy(10 * i) },
			Summary{PartnerCopies: 2, PartnerCopyBytes: 30}, nil},
		{"PartnerCopyFailure", func(r *Recorder, i int64) { r.PartnerCopyFailure() },
			Summary{PartnerCopyFailures: 2}, nil},
		{"RankDeath", func(r *Recorder, i int64) { r.RankDeath() },
			Summary{RankDeaths: 2}, nil},
		{"DrainStart", func(r *Recorder, i int64) { r.DrainStart() },
			Summary{Drains: 2}, nil},
		{"DrainDeadline met", func(r *Recorder, i int64) { r.DrainDeadline(true) },
			Summary{DrainDeadlineHits: 2}, nil},
		{"DrainDeadline missed", func(r *Recorder, i int64) { r.DrainDeadline(false) },
			Summary{}, nil},
		{"DrainFlushed", func(r *Recorder, i int64) { r.DrainFlushed(10 * i) },
			Summary{DrainedVersions: 2, DrainedBytes: 30}, nil},
		{"DrainAbandoned", func(r *Recorder, i int64) { r.DrainAbandoned(10 * i) },
			Summary{DrainAbandonedVersions: 2, DrainAbandonedBytes: 30}, nil},
		{"MigrationStart", func(r *Recorder, i int64) { r.MigrationStart() },
			Summary{Migrations: 2}, nil},
		{"MigrationCopy", func(r *Recorder, i int64) { r.MigrationCopy(10 * i) },
			Summary{MigratedVersions: 2, MigratedBytes: 30}, nil},
		{"MigrationFailure", func(r *Recorder, i int64) { r.MigrationFailure() },
			Summary{MigrationFailures: 2}, nil},
		{"HedgeLaunched", func(r *Recorder, i int64) { r.HedgeLaunched() },
			Summary{HedgesLaunched: 2}, nil},
		{"HedgeWin", func(r *Recorder, i int64) { r.HedgeWin() },
			Summary{HedgeWins: 2}, nil},
		{"HedgeWasted", func(r *Recorder, i int64) { r.HedgeWasted(10 * i) },
			Summary{HedgeWastedBytes: 30}, nil},
		{"SLOAlertFired", func(r *Recorder, i int64) { r.SLOAlertFired() },
			Summary{SLOAlertsFired: 2}, nil},
		{"SLOAlertResolved", func(r *Recorder, i int64) { r.SLOAlertResolved() },
			Summary{SLOAlertsResolved: 2}, nil},
		{"TelemetryDrops", func(r *Recorder, i int64) { r.TelemetryDrops(i, 2*i, 3*i) },
			Summary{TraceEventsDropped: 2, TraceCountersDropped: 4, LedgerEventsDropped: 6}, nil},
		{"StallDetected", func(r *Recorder, i int64) { r.StallDetected() },
			Summary{StallsDetected: 2}, nil},
		{"StallRerouted", func(r *Recorder, i int64) { r.StallRerouted() },
			Summary{StallsRerouted: 2}, nil},
		{"HealthQuarantine", func(r *Recorder, i int64) { r.HealthQuarantine() },
			Summary{HealthQuarantines: 2}, nil},
		{"FallbackRead", func(r *Recorder, i int64) { r.FallbackRead() },
			Summary{FallbackReads: 2}, nil},
		{"Repopulation", func(r *Recorder, i int64) { r.Repopulation() },
			Summary{Repopulations: 2}, nil},
		{"FlushAbort", func(r *Recorder, i int64) { r.FlushAbort() },
			Summary{FlushAborts: 2}, nil},
		{"SyncFlush", func(r *Recorder, i int64) { r.SyncFlush() },
			Summary{SyncFlushes: 2}, nil},
		{"Pipelined complete", func(r *Recorder, i int64) {
			r.Pipelined(10*i, time.Duration(i)*ms, time.Duration(2*i)*ms, []int64{10 * i, 10 * i}, true)
		}, Summary{PipelinedStreams: 2, PipelinedBytes: 30, PipelinedElapsed: 3 * ms, PipelinedHopBusy: 6 * ms,
			PipelinedHopBytes: 60, PipelinedHopBytesWant: 60}, nil},
		{"Pipelined incomplete", func(r *Recorder, i int64) {
			r.Pipelined(10*i, time.Duration(i)*ms, time.Duration(2*i)*ms, []int64{10 * i, 0}, false)
		}, Summary{PipelinedStreams: 2, PipelinedBytes: 30, PipelinedElapsed: 3 * ms, PipelinedHopBusy: 6 * ms}, nil},
		{"CritPath", func(r *Recorder, i int64) {
			r.CritPath(CritPathRecord{Op: CritDurable, Version: i, Total: time.Duration(i) * ms})
		}, Summary{CritPaths: []CritPathRecord{
			{Op: CritDurable, Version: 1, Total: ms},
			{Op: CritDurable, Version: 2, Total: 2 * ms},
		}}, nil},
		{"ObserveDuration", func(r *Recorder, i int64) { r.ObserveDuration(HistDrainSlack, time.Duration(i)*ms) },
			Summary{}, map[string]int64{HistDrainSlack: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder()
			tc.rec(r, 1)
			tc.rec(r, 2)
			got := r.Snapshot()
			var hists map[string]int64
			for name, h := range got.Histograms {
				if hists == nil {
					hists = map[string]int64{}
				}
				hists[name] = h.Count
			}
			got.Histograms = nil
			if len(got.RestoreSeries) == 0 {
				got.RestoreSeries = nil
			}
			for _, name := range summaryDiff(got, tc.want) {
				g, w := reflect.ValueOf(got).FieldByName(name), reflect.ValueOf(tc.want).FieldByName(name)
				t.Errorf("%s = %v, want %v", name, g, w)
			}
			if !reflect.DeepEqual(hists, tc.hists) {
				t.Errorf("histogram sample counts %v, want %v", hists, tc.hists)
			}
		})
	}
}

// summaryDiff names the fields in which a and b differ.
func summaryDiff(a, b Summary) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var names []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			names = append(names, va.Type().Field(i).Name)
		}
	}
	return names
}
