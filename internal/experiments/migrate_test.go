package experiments

import (
	"errors"
	"reflect"
	"testing"

	"score"
)

// TestMigrationBitExactCutover is the acceptance scenario: a live
// migration racing foreground writes and restores, finished by an
// incremental sync, after which the successor restores every version
// byte-identically.
func TestMigrationBitExactCutover(t *testing.T) {
	res := migrateRow(t, false)
	if !res.Recoverable || res.RestoredVersions != res.Versions {
		t.Fatalf("successor restored %d/%d versions: %+v", res.RestoredVersions, res.Versions, res)
	}
	if !res.Final.Validated {
		t.Errorf("final sync not validated: %+v", res.Final)
	}
	if res.MigratedBytes == 0 {
		t.Error("no bytes migrated")
	}
	if res.Live.Versions+res.Final.Versions != res.Versions {
		t.Errorf("live %d + final %d versions != %d written — a version was copied twice or missed",
			res.Live.Versions, res.Final.Versions, res.Versions)
	}
}

// TestMigrationSurvivesInjectedFault: a copy failed through the migrate
// fault site retries under the client's policy and the cutover still
// validates bit-exactly.
func TestMigrationSurvivesInjectedFault(t *testing.T) {
	res := migrateRow(t, true)
	if res.InjectedFaults == 0 {
		t.Fatal("fault schedule never fired; the migrate site is not wired")
	}
	if !res.Recoverable {
		t.Fatalf("injected copy fault made the migration unrecoverable: %+v", res)
	}
}

// TestMigrationDeterministic: the same Run, on fresh store roots,
// replays the identical rows.
func TestMigrationDeterministic(t *testing.T) {
	a, err := Migration(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Migration(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("migration not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// migrateRow runs the paper-scale Migration sweep and returns the row of
// the variant with the copy fault injected or not.
func migrateRow(t *testing.T, injectFault bool) MigrateRow {
	t.Helper()
	res, err := Migration(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.InjectFault == injectFault {
			return row
		}
	}
	t.Fatalf("no row with InjectFault %v in %+v", injectFault, res)
	return MigrateRow{}
}

// TestMigrationIncompleteIsDefinitive: a persistent outage on the
// migrate site must surface ErrMigrationIncomplete (or the underlying
// injected failure) — never a silently divergent successor.
func TestMigrationIncompleteIsDefinitive(t *testing.T) {
	root := t.TempDir()
	sim, err := score.NewSim(score.WithNodes(2), score.WithGPUsPerNode(1))
	if err != nil {
		t.Fatal(err)
	}
	// Every migrate-site copy fails, forever: retries exhaust.
	inj := sim.NewFaultInjector(7, score.FailWindow(score.FaultMigrate, 0, 1<<62))
	var migErr error
	sim.Run(func() {
		cl, err := sim.NewClient(0, 0,
			score.WithGPUCache(16*storeSize),
			score.WithHostCache(16*storeSize),
			score.WithAsyncHostInit(),
			score.WithStore(storeDir(root, 0, "local", 0)),
			score.WithFaultInjector(inj))
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		for v := int64(0); v < 3; v++ {
			if err := cl.Checkpoint(v, rankPayload(0, v)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := cl.WaitFlush(); err != nil {
			t.Error(err)
			return
		}
		_, migErr = sim.MigrateRank(cl, 1, storeDir(root, 1, "migrated", 0))
	})
	if migErr == nil {
		t.Fatal("migration under a persistent outage reported success")
	}
	if !errors.Is(migErr, score.ErrFaultInjected) && !errors.Is(migErr, score.ErrMigrationIncomplete) {
		t.Errorf("error is neither the injected fault nor ErrMigrationIncomplete: %v", migErr)
	}
}
