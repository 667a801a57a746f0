package metrics

import (
	"testing"
	"time"
)

func TestHistogramBoundsLadder(t *testing.T) {
	b := defaultBounds[:]
	if len(b) == 0 {
		t.Fatal("no default bounds")
	}
	if b[0] != time.Microsecond {
		t.Errorf("first bound = %v, want 1µs", b[0])
	}
	if last := b[len(b)-1]; last != 100*time.Second {
		t.Errorf("last bound = %v, want 100s", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Errorf("bounds not strictly increasing at %d: %v then %v", i, b[i-1], b[i])
		}
	}
}

func TestHistogramObserveAndBuckets(t *testing.T) {
	h := NewHistogram()
	h.Observe(500 * time.Nanosecond) // below first bound → bucket 0
	h.Observe(time.Microsecond)      // exactly on a bound → that bucket
	h.Observe(3 * time.Millisecond)  // between 2ms and 5ms
	h.Observe(-time.Second)          // clamps to zero → bucket 0
	h.Observe(time.Hour)             // beyond the ladder → +Inf bucket

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Errorf("bucket counts sum to %d, total says %d", sum, s.Count)
	}
	if got := s.Counts[0]; got != 3 {
		t.Errorf("first bucket has %d observations, want 3 (sub-µs, exact bound, clamped negative)", got)
	}
	if got := s.Counts[len(s.Counts)-1]; got != 1 {
		t.Errorf("+Inf bucket has %d observations, want 1", got)
	}
	wantSum := time.Microsecond + 500*time.Nanosecond + 3*time.Millisecond + time.Hour
	if s.Sum != wantSum {
		t.Errorf("Sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if q := h.Snapshot().P99(); q != 0 {
		t.Errorf("empty histogram P99 = %v, want 0", q)
	}
	// 90 fast observations and 10 slow ones: p50 resolves to the fast
	// bucket's bound, p99 to the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second)
	}
	s := h.Snapshot()
	if got := s.P50(); got != time.Microsecond {
		t.Errorf("P50 = %v, want 1µs", got)
	}
	if got := s.P95(); got != time.Second {
		t.Errorf("P95 = %v, want 1s", got)
	}
	if got := s.P99(); got != time.Second {
		t.Errorf("P99 = %v, want 1s", got)
	}
	if got := s.Quantile(0); got != time.Microsecond {
		t.Errorf("Quantile(0) = %v, want the lowest occupied bound", got)
	}
}

func TestHistogramQuantileOverflowReportsMean(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Hour)
	h.Observe(3 * time.Hour)
	s := h.Snapshot()
	if got, want := s.P99(), 2*time.Hour; got != want {
		t.Errorf("P99 of all-overflow histogram = %v, want mean %v", got, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 7; i++ {
		a.Observe(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		b.Observe(time.Second)
	}
	merged, err := a.Snapshot().merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count != 10 {
		t.Errorf("merged Count = %d, want 10", merged.Count)
	}
	if want := 7*time.Millisecond + 3*time.Second; merged.Sum != want {
		t.Errorf("merged Sum = %v, want %v", merged.Sum, want)
	}
	var sum int64
	for _, c := range merged.Counts {
		sum += c
	}
	if sum != merged.Count {
		t.Errorf("merged bucket counts sum to %d, total says %d", sum, merged.Count)
	}

	// Merging with an empty snapshot is the identity in both directions.
	empty := HistogramSnapshot{}
	if got, err := a.Snapshot().merge(empty); err != nil || got.Count != 7 {
		t.Errorf("merge with empty: count %d err %v, want 7 nil", got.Count, err)
	}
	if got, err := empty.merge(a.Snapshot()); err != nil || got.Count != 7 {
		t.Errorf("empty merge: count %d err %v, want 7 nil", got.Count, err)
	}

	// Mismatched bucket layouts must refuse to merge.
	bad := HistogramSnapshot{Counts: []int64{1, 2}}
	if _, err := a.Snapshot().merge(bad); err == nil {
		t.Error("merging mismatched bucket counts did not error")
	}
}

func TestRecorderHistogramsInSnapshot(t *testing.T) {
	r := NewRecorder()
	r.Checkpoint(1024, 2*time.Millisecond)
	r.Restore(0, 1024, 5*time.Millisecond, 1)
	r.EvictionWait(time.Millisecond)
	r.ObserveDuration(HistFlushPrefix+"gpu", 100*time.Microsecond)
	r.ObserveDuration(HistPrefetch, 200*time.Microsecond)
	r.ObserveDuration(HistRetryBackoff, 50*time.Millisecond)

	s := r.Snapshot()
	for _, name := range []string{
		HistCheckpoint, HistRestore, HistEvictionWait,
		HistFlushPrefix + "gpu", HistPrefetch, HistRetryBackoff,
	} {
		h, ok := s.Histograms[name]
		if !ok {
			t.Errorf("snapshot missing histogram %q", name)
			continue
		}
		if h.Count != 1 {
			t.Errorf("histogram %q Count = %d, want 1", name, h.Count)
		}
	}
	if err := CheckInvariants(s); err != nil {
		t.Errorf("invariants after recording: %v", err)
	}
}

func TestMergeCombinesHistograms(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	a.Checkpoint(100, time.Millisecond)
	b.Checkpoint(200, 2*time.Millisecond)
	b.ObserveDuration(HistPrefetch, time.Millisecond)

	m := Merge(a.Snapshot(), b.Snapshot())
	if h := m.Histograms[HistCheckpoint]; h.Count != 2 {
		t.Errorf("merged checkpoint histogram Count = %d, want 2", h.Count)
	}
	if h := m.Histograms[HistPrefetch]; h.Count != 1 {
		t.Errorf("merged prefetch histogram Count = %d, want 1", h.Count)
	}
	if err := CheckInvariants(m); err != nil {
		t.Errorf("invariants after merge: %v", err)
	}
}

// TestHistogramSingleSample: every quantile of a one-observation
// histogram — including q=0 and q=1 — resolves to that observation's
// bucket bound.
func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(3 * time.Millisecond) // lands in the 5ms bucket
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := s.Quantile(q); got != 5*time.Millisecond {
			t.Errorf("single sample Quantile(%v) = %v, want 5ms", q, got)
		}
	}
	if got := s.P999(); got != 5*time.Millisecond {
		t.Errorf("single sample P999 = %v, want 5ms", got)
	}
}

// TestHistogramAllOverflow: with every observation beyond the ladder,
// the only honest estimate at any quantile is the mean.
func TestHistogramAllOverflow(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Hour)
	h.Observe(3 * time.Hour)
	s := h.Snapshot()
	want := 2 * time.Hour
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := s.Quantile(q); got != want {
			t.Errorf("all-overflow Quantile(%v) = %v, want mean %v", q, got, want)
		}
	}
}

// TestHistogramQuantileOne: q=1.0 (and above, clamped) resolves to the
// maximum occupied bucket, not the overflow path.
func TestHistogramQuantileOne(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(time.Microsecond)
	}
	h.Observe(time.Second)
	s := h.Snapshot()
	if got := s.Quantile(1); got != time.Second {
		t.Errorf("Quantile(1) = %v, want 1s", got)
	}
	if got := s.Quantile(2); got != time.Second {
		t.Errorf("Quantile(2) clamps to 1.0: got %v, want 1s", got)
	}
	// A 1% slow tail over 1010 observations: P99's rank still lands in
	// the fast bucket, P999's reaches the outliers.
	h2 := NewHistogram()
	for i := 0; i < 1000; i++ {
		h2.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(time.Second)
	}
	s2 := h2.Snapshot()
	if got := s2.P99(); got != time.Microsecond {
		t.Errorf("P99 = %v, want 1µs", got)
	}
	if got := s2.P999(); got != time.Second {
		t.Errorf("P999 = %v, want 1s", got)
	}
}
