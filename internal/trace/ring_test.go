package trace

import (
	"testing"
	"time"
)

// TestRetentionBounds drives the span and counter stores past their caps:
// the ring keeps exactly the newest entries and counts the rest, across
// block boundaries, through SetCapacity shrinks and grows.
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
			for _, st := range tc.steps {
				if st.setCap > 0 {
					tr.SetCapacity(st.setCap, st.setCap)
				}
				for i := 0; i < st.record; i++ {
					at := time.Duration(recorded)
					tr.Record(0, TrackApp, "c", "span", at, 1)
					tr.Counter(0, "ctr", at, float64(recorded))
					recorded++
				}
			}
			if got := tr.Len(); got != tc.wantLen {
				t.Errorf("Len = %d, want %d", got, tc.wantLen)
			}
			evDropped, ctrDropped := tr.Dropped()
			if evDropped != tc.wantDropped || ctrDropped != tc.wantDropped {
				t.Errorf("Dropped = %d spans, %d samples; want %d of each", evDropped, ctrDropped, tc.wantDropped)
			}
			// Exactly the newest wantLen entries, each once.
			events, counters := tr.Events(), tr.Counters()
			if len(events) != tc.wantLen || len(counters) != tc.wantLen {
				t.Fatalf("retained %d spans, %d samples; want %d of each", len(events), len(counters), tc.wantLen)
			}
			oldest := recorded - tc.wantLen
			for i := range events {
				if want := time.Duration(oldest + i); events[i].Start != want || counters[i].At != want {
					t.Fatalf("entry %d: span at %d, sample at %d; want %d (the newest %d of %d)",
						i, events[i].Start, counters[i].At, want, tc.wantLen, recorded)
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
