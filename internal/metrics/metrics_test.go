package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestThroughputComputation(t *testing.T) {
	r := NewRecorder()
	r.Checkpoint(1<<30, time.Second)
	r.Checkpoint(1<<30, time.Second)
	s := r.Snapshot()
	if got := s.CheckpointThroughput(); got != 1<<30 {
		t.Errorf("checkpoint throughput = %v, want 1 GiB/s", got)
	}
	if s.CheckpointOps != 2 {
		t.Errorf("ops = %d, want 2", s.CheckpointOps)
	}
}

func TestRestoreSeriesAndPrefetchDistance(t *testing.T) {
	r := NewRecorder()
	r.Restore(0, 100, time.Millisecond, 3)
	r.Restore(1, 100, time.Millisecond, 5)
	s := r.Snapshot()
	if len(s.RestoreSeries) != 2 {
		t.Fatalf("series length = %d", len(s.RestoreSeries))
	}
	if s.RestoreSeries[1].PrefetchDistance != 5 {
		t.Errorf("series[1] distance = %d, want 5", s.RestoreSeries[1].PrefetchDistance)
	}
	if got := s.MeanPrefetchDistance(); got != 4 {
		t.Errorf("mean prefetch distance = %v, want 4", got)
	}
}

func TestZeroBlockedThroughput(t *testing.T) {
	var s Summary
	if s.CheckpointThroughput() != 0 {
		t.Error("empty summary should have zero throughput")
	}
	s.CheckpointBytes = 100
	if s.CheckpointThroughput() <= 0 {
		t.Error("instant ops should report a huge, positive throughput")
	}
}

func TestMergeAddsAndSorts(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	a.Checkpoint(10, time.Second)
	b.Checkpoint(20, time.Second)
	a.Restore(1, 5, time.Millisecond, 0)
	b.Restore(0, 5, time.Millisecond, 0)
	a.Deviation()
	m := Merge(a.Snapshot(), b.Snapshot())
	if m.CheckpointBytes != 30 || m.CheckpointBlocked != 2*time.Second {
		t.Errorf("merged totals wrong: %+v", m)
	}
	if m.DeviationReads != 1 {
		t.Errorf("deviations = %d", m.DeviationReads)
	}
	if m.RestoreSeries[0].Iteration != 0 || m.RestoreSeries[1].Iteration != 1 {
		t.Error("merged series not sorted by iteration")
	}
}

func TestEvictionWaitAccumulates(t *testing.T) {
	r := NewRecorder()
	r.EvictionWait(time.Second)
	r.EvictionWait(2 * time.Second)
	if got := r.Snapshot().EvictionWait; got != 3*time.Second {
		t.Errorf("eviction wait = %v, want 3s", got)
	}
}

func TestFormatBytesPerSec(t *testing.T) {
	cases := map[float64]string{
		512:             "512 B/s",
		2 * 1024:        "2.00 KB/s",
		3 << 20:         "3.00 MB/s",
		25 << 30:        "25.00 GB/s",
		1.5 * (1 << 40): "1.50 TB/s",
	}
	for in, want := range cases {
		if got := FormatBytesPerSec(in); got != want {
			t.Errorf("FormatBytesPerSec(%v) = %q, want %q", in, got, want)
		}
	}
	if !strings.Contains(FormatBytesPerSec(0), "B/s") {
		t.Error("zero should still carry a unit")
	}
}

func TestMergePreservesTotalsProperty(t *testing.T) {
	// Property: merging any split of operations equals recording them
	// all in one recorder.
	f := func(bytes []uint16) bool {
		whole := NewRecorder()
		a, b := NewRecorder(), NewRecorder()
		for i, v := range bytes {
			sz := int64(v) + 1
			whole.Checkpoint(sz, time.Duration(sz))
			if i%2 == 0 {
				a.Checkpoint(sz, time.Duration(sz))
			} else {
				b.Checkpoint(sz, time.Duration(sz))
			}
		}
		m := Merge(a.Snapshot(), b.Snapshot())
		w := whole.Snapshot()
		return m.CheckpointBytes == w.CheckpointBytes &&
			m.CheckpointBlocked == w.CheckpointBlocked &&
			m.CheckpointOps == w.CheckpointOps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRobustnessCounters(t *testing.T) {
	r := NewRecorder()
	r.Retry("ssd")
	r.Retry("ssd")
	r.Retry("pfs")
	r.Degradation("ssd")
	r.FallbackRead()
	r.FallbackRead()
	r.Repopulation()
	r.FlushAbort()
	r.SyncFlush()
	s := r.Snapshot()
	if s.Retries["ssd"] != 2 || s.Retries["pfs"] != 1 || s.TotalRetries() != 3 {
		t.Errorf("Retries = %v", s.Retries)
	}
	if s.Degradations["ssd"] != 1 || s.TotalDegradations() != 1 {
		t.Errorf("Degradations = %v", s.Degradations)
	}
	if s.FallbackReads != 2 || s.Repopulations != 1 || s.FlushAborts != 1 || s.SyncFlushes != 1 {
		t.Errorf("counters = %+v", s)
	}
	// Snapshot must be a deep copy: mutating the recorder afterwards
	// must not change an earlier summary.
	r.Retry("ssd")
	if s.Retries["ssd"] != 2 {
		t.Error("Snapshot shares the retries map with the recorder")
	}
}

func TestMergeRobustnessCounters(t *testing.T) {
	a := Summary{
		Retries:       map[string]int64{"ssd": 2},
		Degradations:  map[string]int64{"ssd": 1},
		FallbackReads: 1, Repopulations: 1, FlushAborts: 1, SyncFlushes: 2,
	}
	b := Summary{
		Retries:       map[string]int64{"ssd": 1, "pfs": 4},
		Degradations:  map[string]int64{"host": 1},
		FallbackReads: 2,
	}
	m := Merge(a, b)
	if m.Retries["ssd"] != 3 || m.Retries["pfs"] != 4 {
		t.Errorf("merged Retries = %v", m.Retries)
	}
	if m.Degradations["ssd"] != 1 || m.Degradations["host"] != 1 {
		t.Errorf("merged Degradations = %v", m.Degradations)
	}
	if m.FallbackReads != 3 || m.Repopulations != 1 || m.FlushAborts != 1 || m.SyncFlushes != 2 {
		t.Errorf("merged counters = %+v", m)
	}
}

// TestMergeAddsEveryField fills every field of two Summaries with
// distinct values and requires Merge to sum each counter, map entry and
// histogram and to concatenate each slice. A Summary field Merge forgets
// fails here; a field of a kind the test cannot fill fails too, so the
// test grows with Summary.
func TestMergeAddsEveryField(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	var a, b Summary
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		fa, fb := va.Field(i), vb.Field(i)
		switch {
		case f.Type.Kind() == reflect.Int64: // int64 and time.Duration
			fa.SetInt(int64(i + 1))
			fb.SetInt(int64(1000 * (i + 1)))
		case f.Type == reflect.TypeOf(map[string]int64(nil)):
			fa.Set(reflect.ValueOf(map[string]int64{"ssd": int64(i + 1)}))
			fb.Set(reflect.ValueOf(map[string]int64{"ssd": int64(1000 * (i + 1)), "pfs": 1}))
		case f.Type == reflect.TypeOf(map[string]HistogramSnapshot(nil)):
			fa.Set(reflect.ValueOf(map[string]HistogramSnapshot{HistRestore: h.Snapshot()}))
			fb.Set(reflect.ValueOf(map[string]HistogramSnapshot{HistRestore: h.Snapshot(), HistCheckpoint: h.Snapshot()}))
		case f.Type.Kind() == reflect.Slice:
			fa.Set(reflect.MakeSlice(f.Type, 1, 1))
			fb.Set(reflect.MakeSlice(f.Type, 2, 2))
		default:
			t.Fatalf("Summary.%s has type %s, which this test does not fill: teach it and Merge", f.Name, f.Type)
		}
	}
	m := reflect.ValueOf(Merge(a, b))
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fa, fb, fm := va.Field(i), vb.Field(i), m.Field(i)
		switch fm.Kind() {
		case reflect.Int64:
			if want := fa.Int() + fb.Int(); fm.Int() != want {
				t.Errorf("Merge: %s = %d, want %d", name, fm.Int(), want)
			}
		case reflect.Slice:
			if want := fa.Len() + fb.Len(); fm.Len() != want {
				t.Errorf("Merge: %s has %d elements, want %d", name, fm.Len(), want)
			}
		case reflect.Map: // b's keys include a's
			for _, k := range fb.MapKeys() {
				if got, want := mergeCount(fm.MapIndex(k)), mergeCount(fa.MapIndex(k))+mergeCount(fb.MapIndex(k)); got != want {
					t.Errorf("Merge: %s[%v] = %d, want %d", name, k, got, want)
				}
			}
		}
	}
}

// mergeCount reads a map entry as the number Merge must add: the value
// of a counter, the sample count of a histogram, 0 for a missing key.
func mergeCount(v reflect.Value) int64 {
	switch {
	case !v.IsValid():
		return 0
	case v.Kind() == reflect.Int64:
		return v.Int()
	}
	return v.Interface().(HistogramSnapshot).Count
}

// TestSnapshotSharesNothing: a Snapshot is unaffected by later records,
// and writes to it do not reach the recorder — series, maps, critical
// paths and histograms are all copied.
func TestSnapshotSharesNothing(t *testing.T) {
	r := NewRecorder()
	record := func() {
		r.Checkpoint(10, time.Millisecond)
		r.Restore(0, 10, time.Millisecond, 1)
		r.Retry("ssd")
		r.Degradation("ssd")
		r.TierRecovery("ssd")
		r.CritPath(CritPathRecord{Op: CritDurable, Total: time.Millisecond,
			Components: map[string]time.Duration{CompXferSSD: time.Millisecond}})
	}
	record()
	s := r.Snapshot()
	before, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	record()
	if after, _ := json.Marshal(s); !bytes.Equal(before, after) {
		t.Errorf("later records changed an earlier Snapshot:\nbefore %s\nafter  %s", before, after)
	}

	want, _ := json.Marshal(r.Snapshot())
	s = r.Snapshot()
	s.RestoreSeries[0].Bytes = -1
	s.Retries["ssd"] = -1
	s.Degradations["ssd"] = -1
	s.TierRecoveries["ssd"] = -1
	s.CritPaths[0].Components[CompXferSSD] = -1
	s.Histograms[HistRestore].Counts[0] = -1
	if got, _ := json.Marshal(r.Snapshot()); !bytes.Equal(got, want) {
		t.Errorf("writes to a Snapshot reached the recorder:\nwant %s\ngot  %s", want, got)
	}
}
