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
	res, err := RankFailure(Run{Scale: Full()}, RankFailConfig{StoreRoot: t.TempDir(), PartnerCopy: true})
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := RankFailure(Run{Scale: Full()}, RankFailConfig{StoreRoot: t.TempDir(), PartnerCopy: false})
	if err != nil {
		t.Fatal(err)
	}
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

// TestRankFailureDeterministic: the same config reproduces the identical
// result under a kill that races in-flight flushes (killAt lands
// mid-flush of an early version).
func TestRankFailureDeterministic(t *testing.T) {
	cfg := RankFailConfig{PartnerCopy: true}
	var prev RankFailResult
	for i := 0; i < 2; i++ {
		cfg.StoreRoot = t.TempDir()
		res, err := RankFailure(Run{Scale: Full()}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reflect.DeepEqual(prev, res) {
			t.Fatalf("non-deterministic scenario:\nrun1: %+v\nrun2: %+v", prev, res)
		}
		prev = res
	}
}

// TestRankFailureSingleRankKill kills one GPU, not a node: the rank's
// local store survives the crash (process death, not disk death), so the
// job recovers even without partner copies.
func TestRankFailureSingleRankKill(t *testing.T) {
	res, err := RankFailure(Run{Scale: Full()}, RankFailConfig{
		StoreRoot:    t.TempDir(),
		KillRankOnly: true,
		PartnerCopy:  false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RankDeaths != 1 || len(res.Killed) != 1 {
		t.Fatalf("rank deaths = %d killed = %v, want one", res.RankDeaths, res.Killed)
	}
	if !res.Recoverable {
		t.Fatalf("single-rank kill with surviving SSD not recoverable: %+v", res)
	}
}
