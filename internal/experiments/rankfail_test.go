package experiments

import (
	"reflect"
	"testing"
)

// TestRankFailureWithPartnerCopyRecovers is the acceptance scenario: a
// full-node kill mid-flush, node SSD contents destroyed, yet the restart
// restores the newest globally committed version bit-exactly on every
// rank because the dead ranks' checkpoints survive on the partner node.
func TestRankFailureWithPartnerCopyRecovers(t *testing.T) {
	res := rankFailRow(t, true)
	if !res.Recoverable {
		t.Fatalf("node kill with partner copy not recoverable: %+v", res)
	}
	if res.RestoredRanks != res.Ranks {
		t.Errorf("restored %d/%d ranks", res.RestoredRanks, res.Ranks)
	}
	if res.LatestConsistent < 0 {
		t.Errorf("no consistent version despite recovery: %+v", res)
	}
	if res.RankDeaths != int64(len(res.Killed)) {
		t.Errorf("rank deaths = %d, want %d", res.RankDeaths, len(res.Killed))
	}
	if res.PartnerCopies == 0 || res.PartnerCopyBytes == 0 {
		t.Errorf("no partner replication recorded: %+v", res)
	}
	// The kill landed mid-run: the committed frontier must trail the
	// survivors' newest version.
	if res.LatestConsistent >= 5 {
		t.Errorf("latest consistent %d — kill did not interrupt the job", res.LatestConsistent)
	}
}

// TestRankFailureWithoutPartnerCopyIsUnrecoverable: the same kill without
// replication must be reported unrecoverable — never wrong bytes, never a
// fabricated restart point.
func TestRankFailureWithoutPartnerCopyIsUnrecoverable(t *testing.T) {
	res := rankFailRow(t, false)
	if res.Recoverable || res.RestoredRanks != 0 {
		t.Fatalf("node kill without partner copy reported recoverable: %+v", res)
	}
	if res.LatestConsistent != -1 {
		t.Errorf("latest consistent = %d, want -1", res.LatestConsistent)
	}
	if res.RankDeaths != int64(len(res.Killed)) {
		t.Errorf("rank deaths = %d, want %d", res.RankDeaths, len(res.Killed))
	}
}

// TestRankFailureDeterministic: the same Run reproduces the identical
// rows under a kill that races in-flight flushes (killAt lands mid-flush
// of an early version).
func TestRankFailureDeterministic(t *testing.T) {
	a, err := RankFailure(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RankFailure(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic scenario:\nrun1: %+v\nrun2: %+v", a, b)
	}
}

// rankFailRow runs the paper-scale RankFailure sweep and returns the row
// of the variant with partner copies on or off.
func rankFailRow(t *testing.T, partner bool) RankFailRow {
	t.Helper()
	res, err := RankFailure(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.PartnerCopy == partner {
			return row
		}
	}
	t.Fatalf("no row with PartnerCopy %v in %+v", partner, res)
	return RankFailRow{}
}
