package metrics

import (
	"fmt"
	"slices"
	"time"
)

// Histogram names recorded by the runtime. Keeping them as constants means
// exporters, tests and dashboards agree on the spelling.
const (
	HistCheckpoint   = "checkpoint_blocked"
	HistRestore      = "restore_blocked"
	HistFlushPrefix  = "flush_" // + source tier name, e.g. flush_gpu
	HistPrefetch     = "prefetch"
	HistEvictionWait = "eviction_wait"
	HistRetryBackoff = "retry_backoff"
	HistDrainFlush   = "drain_flush"   // per-version triage flush latency during a drain
	HistDrainSlack   = "drain_slack"   // grace window left when a drain finished (deadline-hit margin)
	HistMigrateCopy  = "migrate_copy"  // per-version copy latency during a live migration
	HistHedgeWait    = "hedge_wait"    // hedged deep read: time from first leg start to winning completion
	HistStallReroute = "stall_reroute" // alternate-tier write latency after a stalled flush leg
)

// defaultBounds are the fixed histogram boundaries shared by every latency
// histogram: a 1-2-5 decade ladder from 1µs to 100s. Fixed boundaries make
// histograms from different ranks (and different runs) mergeable bucket by
// bucket, which Merge and the registry rely on.
var defaultBounds = [...]time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second,
	10 * time.Second, 20 * time.Second, 50 * time.Second,
	100 * time.Second,
}

// Histogram is a fixed-boundary latency histogram over defaultBounds.
// Bucket i counts observations d <= defaultBounds[i]; the final bucket is
// the +Inf overflow. The counts are held inline, so a histogram is one
// object. A Recorder owns each of its histograms.
type Histogram struct {
	counts [len(defaultBounds) + 1]int64 // last is +Inf
	count  int64
	sum    time.Duration
}

// NewHistogram returns an empty histogram over the shared default bounds.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe adds one duration (negative values clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[h.bucket(d)]++
	h.count++
	h.sum += d
}

func (h *Histogram) bucket(d time.Duration) int {
	lo, hi := 0, len(defaultBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= defaultBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Snapshot returns an immutable copy.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{Bounds: defaultBounds[:], Counts: slices.Clone(h.counts[:]), Count: h.count, Sum: h.sum}
}

// view is h in the shape of a snapshot that shares h's counts: valid
// until the recorder's next observation.
func (h *Histogram) view() HistogramSnapshot {
	return HistogramSnapshot{Bounds: defaultBounds[:], Counts: h.counts[:], Count: h.count, Sum: h.sum}
}

// HistogramSnapshot is the exported, JSON-serialisable form of a Histogram.
type HistogramSnapshot struct {
	Bounds []time.Duration `json:"bounds"`
	Counts []int64         `json:"counts"` // len(Bounds)+1, last is +Inf
	Count  int64           `json:"count"`
	Sum    time.Duration   `json:"sum"`
}

// Quantile returns an upper-bound estimate for the q-th quantile
// (0 < q <= 1): the boundary of the bucket containing that rank. Returns 0
// for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			// Overflow bucket: no finite upper bound; report the mean of
			// everything as the best available estimate.
			return s.Mean()
		}
	}
	return s.Mean()
}

// P50, P95 and P99 are the quantiles the paper's evaluation quotes;
// P999 serves the SLO engine's tighter tail objectives on the same
// 1-2-5 ladder.
func (s HistogramSnapshot) P50() time.Duration  { return s.Quantile(0.50) }
func (s HistogramSnapshot) P95() time.Duration  { return s.Quantile(0.95) }
func (s HistogramSnapshot) P99() time.Duration  { return s.Quantile(0.99) }
func (s HistogramSnapshot) P999() time.Duration { return s.Quantile(0.999) }

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// merge adds other into s bucket by bucket. Both histograms must share the
// same fixed boundaries (they always do — see defaultBounds).
func (s HistogramSnapshot) merge(other HistogramSnapshot) (HistogramSnapshot, error) {
	if len(s.Counts) == 0 {
		return other, nil
	}
	if len(other.Counts) == 0 {
		return s, nil
	}
	if len(s.Counts) != len(other.Counts) {
		return s, fmt.Errorf("histogram bucket count mismatch: %d vs %d", len(s.Counts), len(other.Counts))
	}
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count + other.Count,
		Sum:    s.Sum + other.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + other.Counts[i]
	}
	return out, nil
}
