package trace

import (
	"testing"
	"time"

	"score/internal/metrics"
	"score/internal/simclock"
)

// TestRetentionBounds drives the span ring and the sampler's counter
// window past their caps: each keeps exactly the newest entries and
// counts the rest, across block boundaries, through SetCapacity shrinks
// and grows.
func TestRetentionBounds(t *testing.T) {
	type step struct {
		setCap int // 0: leave the cap alone
		record int
	}
	cases := []struct {
		name        string
		steps       []step
		wantLen     int
		wantDropped int64
	}{
		{"under the cap", []step{{8, 5}}, 5, 0},
		{"wraps", []step{{8, 20}}, 8, 12},
		{"wraps many times", []step{{3, 1000}}, 3, 997},
		{"cap of one", []step{{1, 4}}, 1, 3},
		{"shrink drops the oldest", []step{{8, 20}, {5, 0}}, 5, 15},
		{"shrink then wrap", []step{{8, 6}, {4, 3}}, 4, 5},
		{"shrink above the backlog keeps all", []step{{100, 10}, {50, 0}}, 10, 0},
		{"grow keeps everything and accepts more", []step{{8, 20}, {16, 5}}, 13, 12},
		{"grow after wrap then fill", []step{{8, 11}, {12, 10}}, 12, 9},
		{"cap inside the second block", []step{{blockLen + 100, 2*blockLen + 500}}, blockLen + 100, blockLen + 400},
		{"cap of exactly one block", []step{{blockLen, blockLen + 1}}, blockLen, 1},
		{"grow across a block boundary", []step{{100, 150}, {blockLen + 50, blockLen}}, blockLen + 50, 100},
		{"shrink across a block boundary", []step{{3 * blockLen, 2*blockLen + 7}, {blockLen - 1, 0}}, blockLen - 1, blockLen + 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(func() time.Duration { return 0 })
			recorded := 0
			// A series capacity of one leaves the counter window the only
			// thing holding samples back. Stop's final sample is the last
			// one taken, so the ticks take one sample fewer than the
			// spans recorded: the last step that records any takes its
			// last one at Stop, after the shrinks that follow it.
			last := len(tc.steps) - 1
			for tc.steps[last].record == 0 {
				last--
			}
			runSampled(tr, 1, func(s *metrics.Sampler, clk *simclock.Virtual) {
				taken := 0
				s.Register("ctr", func() float64 { taken++; return float64(taken - 1) })
				for i, st := range tc.steps {
					if st.setCap > 0 {
						tr.SetCapacity(st.setCap, st.setCap)
					}
					for j := 0; j < st.record; j++ {
						tr.Record(0, TrackApp, "c", "span", time.Duration(recorded), 1)
						recorded++
					}
					if i == last {
						st.record--
					}
					ticks(clk, st.record)
				}
			})
			if got := tr.Len(); got != tc.wantLen {
				t.Errorf("Len = %d, want %d", got, tc.wantLen)
			}
			evDropped, ctrDropped := tr.Dropped()
			if evDropped != tc.wantDropped || ctrDropped != tc.wantDropped {
				t.Errorf("Dropped = %d spans, %d samples; want %d of each", evDropped, ctrDropped, tc.wantDropped)
			}
			// Exactly the newest wantLen entries, each once.
			events, counters := tr.Events(), counterEvents(tr)
			if len(events) != tc.wantLen || len(counters) != tc.wantLen {
				t.Fatalf("retained %d spans, %d samples; want %d of each", len(events), len(counters), tc.wantLen)
			}
			oldest := recorded - tc.wantLen
			for i := range events {
				if want := oldest + i; events[i].Start != time.Duration(want) || counters[i].Value != float64(want) {
					t.Fatalf("entry %d: span at %d, sample %v; want %d (the newest %d of %d)",
						i, events[i].Start, counters[i].Value, want, tc.wantLen, recorded)
				}
			}
			bothExports(t, tr)
		})
	}
}

func TestSetCapacityRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetCapacity(0, 1) did not panic")
		}
	}()
	New(func() time.Duration { return 0 }).SetCapacity(0, 1)
}
