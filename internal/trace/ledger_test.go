package trace

import (
	"testing"
	"time"
)

// TestFlightRecorderRingBound fills one rank's ledger ring past its cap:
// the newest entries survive in time order, the rest are counted, and
// other ranks' rings are untouched.
func TestFlightRecorderRingBound(t *testing.T) {
	cases := []struct {
		name        string
		cap, record int
		wantDropped int64
	}{
		{"under the cap", 8, 5, 0},
		{"exactly full", 8, 8, 0},
		{"wraps", 8, 20, 12},
		{"wraps many times", 3, 100, 97},
		{"cap of one", 1, 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var now time.Duration
			f := NewFlightRecorder(func() time.Duration { return now }, tc.cap)
			f.Record(7, 0, LCreated, "gpu", "")
			for i := 0; i < tc.record; i++ {
				now = time.Duration(i)
				f.Record(3, int64(i), LCached, "gpu", "")
			}
			ledger := f.Ledger(3)
			want := min(tc.cap, tc.record)
			if len(ledger) != want {
				t.Fatalf("ledger holds %d events, want %d", len(ledger), want)
			}
			for i, ev := range ledger {
				if v := int64(tc.record - want + i); ev.Version != v || ev.At != time.Duration(v) {
					t.Fatalf("ledger[%d] = version %d at %d, want version %d", i, ev.Version, ev.At, v)
				}
			}
			if got := f.Dropped(3); got != tc.wantDropped {
				t.Errorf("Dropped(3) = %d, want %d", got, tc.wantDropped)
			}
			if got := f.TotalDropped(); got != tc.wantDropped {
				t.Errorf("TotalDropped = %d, want %d", got, tc.wantDropped)
			}
			if got := len(f.Ledger(7)); got != 1 {
				t.Errorf("rank 7's ledger holds %d events, want 1", got)
			}
		})
	}
}

// TestLedgerOrdersSameInstantEntries: entries recorded at one instant
// come back ordered by (version, kind, tier, detail) whatever order they
// arrived in, and full duplicates are all kept.
func TestLedgerOrdersSameInstantEntries(t *testing.T) {
	f := NewFlightRecorder(func() time.Duration { return time.Millisecond }, 16)
	f.Record(0, 2, LCached, "gpu", "")
	f.Record(0, 1, LDurable, "ssd", "b")
	f.Record(0, 1, LDurable, "ssd", "a")
	f.Record(0, 1, LCached, "gpu", "")
	f.Record(0, 1, LDurable, "pfs", "z")
	f.Record(0, 1, LCached, "gpu", "")
	want := []LifecycleEvent{
		{Version: 1, Kind: LCached, Tier: "gpu"},
		{Version: 1, Kind: LCached, Tier: "gpu"},
		{Version: 1, Kind: LDurable, Tier: "pfs", Detail: "z"},
		{Version: 1, Kind: LDurable, Tier: "ssd", Detail: "a"},
		{Version: 1, Kind: LDurable, Tier: "ssd", Detail: "b"},
		{Version: 2, Kind: LCached, Tier: "gpu"},
	}
	got := f.Ledger(0)
	if len(got) != len(want) {
		t.Fatalf("ledger holds %d events, want %d", len(got), len(want))
	}
	for i := range want {
		want[i].At = time.Millisecond
		if got[i] != want[i] {
			t.Errorf("ledger[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
