package coord

import (
	"math/rand"
	"testing"
	"time"

	"score/internal/simclock"
)

func TestCommitRequiresEveryRank(t *testing.T) {
	tr, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.LatestConsistent(); ok {
		t.Fatal("empty tracker reports a consistent version")
	}
	tr.MarkDurable(0, 0)
	tr.MarkDurable(1, 0)
	if _, ok := tr.LatestConsistent(); ok {
		t.Fatal("version committed with only 2/3 ranks durable")
	}
	if lag := tr.CommitLag(); lag != 1 {
		t.Fatalf("CommitLag = %d, want 1 (version 0 durable somewhere, none committed)", lag)
	}
	tr.MarkDurable(2, 0)
	v, ok := tr.LatestConsistent()
	if !ok || v != 0 {
		t.Fatalf("LatestConsistent = (%d, %v), want (0, true)", v, ok)
	}
	if lag := tr.CommitLag(); lag != 0 {
		t.Fatalf("CommitLag = %d, want 0", lag)
	}
}

func TestLatestConsistentPicksNewestFullVersion(t *testing.T) {
	tr, _ := New(2)
	for v := int64(0); v < 4; v++ {
		tr.MarkDurable(0, v)
	}
	tr.MarkDurable(1, 0)
	tr.MarkDurable(1, 1)
	tr.MarkDurable(1, 3)
	v, ok := tr.LatestConsistent()
	if !ok || v != 3 {
		t.Fatalf("LatestConsistent = (%d, %v), want (3, true)", v, ok)
	}
	got := tr.CommittedVersions()
	want := []int64{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("CommittedVersions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CommittedVersions = %v, want %v", got, want)
		}
	}
}

func TestMarkLostRetractsClaim(t *testing.T) {
	tr, _ := New(2)
	tr.MarkDurable(0, 5)
	tr.MarkDurable(1, 5)
	if v, ok := tr.LatestConsistent(); !ok || v != 5 {
		t.Fatalf("LatestConsistent = (%d, %v), want (5, true)", v, ok)
	}
	tr.MarkLost(1, 5)
	if _, ok := tr.LatestConsistent(); ok {
		t.Fatal("version still committed after a rank retracted it")
	}
	tr.MarkLost(1, 99) // never claimed: no-op
}

func TestRetractRankDropsAllClaims(t *testing.T) {
	tr, _ := New(2)
	tr.MarkDurable(0, 0)
	tr.MarkDurable(0, 1)
	tr.MarkDurable(1, 0)
	tr.MarkDurable(1, 1)
	tr.RetractRank(1)
	if _, ok := tr.LatestConsistent(); ok {
		t.Fatal("versions survive RetractRank of a required rank")
	}
	// The surviving rank's claims are untouched: re-reporting rank 1
	// re-commits.
	tr.MarkDurable(1, 1)
	if v, ok := tr.LatestConsistent(); !ok || v != 1 {
		t.Fatalf("LatestConsistent = (%d, %v), want (1, true)", v, ok)
	}
}

func TestRankDeathsCountDistinct(t *testing.T) {
	tr, _ := New(4)
	tr.RankDead(2)
	tr.RankDead(2)
	tr.RankDead(0)
	tr.RankDead(99) // out of range: ignored
	if n := tr.RankDeaths(); n != 2 {
		t.Fatalf("RankDeaths = %d, want 2", n)
	}
	dead := tr.DeadRanks()
	if len(dead) != 2 || dead[0] != 0 || dead[1] != 2 {
		t.Fatalf("DeadRanks = %v, want [0 2]", dead)
	}
}

func TestDefensiveInputs(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) succeeded")
	}
	tr, _ := New(1)
	tr.MarkDurable(0, -1) // negative version ignored
	tr.MarkDurable(5, 0)  // out-of-range rank ignored
	if _, ok := tr.LatestConsistent(); ok {
		t.Fatal("defensive inputs produced a committed version")
	}
	tr.MarkDurable(0, 7)
	if v, ok := tr.LatestConsistent(); !ok || v != 7 {
		t.Fatalf("single-rank job: LatestConsistent = (%d, %v), want (7, true)", v, ok)
	}
}

// TestConcurrentReports has every rank report every version from its own
// clock task, each sleeping a seeded virtual interval between reports, so
// the ranks' reports interleave.
func TestConcurrentReports(t *testing.T) {
	const ranks, versions = 8, 32
	tr, _ := New(ranks)
	rng := rand.New(rand.NewSource(1))
	clk := simclock.NewVirtual()
	clk.Run(func() {
		for r := 0; r < ranks; r++ {
			clk.Go(func() {
				for v := int64(0); v < versions; v++ {
					tr.MarkDurable(r, v)
					clk.Sleep(time.Duration(1+rng.Intn(50)) * time.Microsecond)
				}
			})
		}
	})
	v, ok := tr.LatestConsistent()
	if !ok || v != versions-1 {
		t.Fatalf("LatestConsistent = (%d, %v), want (%d, true)", v, ok, versions-1)
	}
	if got := len(tr.CommittedVersions()); got != versions {
		t.Fatalf("committed %d versions, want %d", got, versions)
	}
}

func TestCommitWaitAttribution(t *testing.T) {
	tr, _ := New(3)
	var now time.Duration
	tr.SetNow(func() time.Duration { return now })
	var gotVersion int64 = -1
	var gotWait time.Duration
	fired := 0
	tr.SetCommitObserver(func(version int64, wait time.Duration) {
		fired++
		gotVersion, gotWait = version, wait
	})

	now = 10 * time.Millisecond
	tr.MarkDurable(0, 0) // first durable report stamps firstAt
	now = 12 * time.Millisecond
	tr.MarkDurable(1, 0)
	tr.MarkDurable(1, 0) // duplicate report must not re-fire anything
	if fired != 0 {
		t.Fatalf("observer fired before global commit")
	}
	now = 17 * time.Millisecond
	tr.MarkDurable(2, 0) // last rank: commit at 17ms, wait = 7ms
	if fired != 1 || gotVersion != 0 || gotWait != 7*time.Millisecond {
		t.Fatalf("observer: fired=%d version=%d wait=%v, want 1/0/7ms", fired, gotVersion, gotWait)
	}
	tr.MarkDurable(2, 0) // committed version: no second firing
	if fired != 1 {
		t.Fatalf("observer re-fired on duplicate report: %d", fired)
	}

	waits := tr.CommitWaits()
	if len(waits) != 1 || waits[0] != 7*time.Millisecond {
		t.Fatalf("CommitWaits = %v, want {0: 7ms}", waits)
	}
	if got := tr.MeanCommitWait(); got != 7*time.Millisecond {
		t.Fatalf("MeanCommitWait = %v, want 7ms", got)
	}

	// A later rank death retracting claims must not erase the historical wait.
	tr.RetractRank(1)
	if waits := tr.CommitWaits(); len(waits) != 1 {
		t.Fatalf("CommitWaits after retract = %v, want the historical entry kept", waits)
	}
}

func TestCommitWaitWithoutClockIsZero(t *testing.T) {
	tr, _ := New(2)
	tr.MarkDurable(0, 3)
	tr.MarkDurable(1, 3)
	if waits := tr.CommitWaits(); len(waits) != 1 || waits[3] != 0 {
		t.Fatalf("CommitWaits without SetNow = %v, want {3: 0}", waits)
	}
	if tr.MeanCommitWait() != 0 {
		t.Fatalf("MeanCommitWait without SetNow = %v, want 0", tr.MeanCommitWait())
	}
}
