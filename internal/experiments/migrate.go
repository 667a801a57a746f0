// Live-migration scenario: move a running rank's durable SSD tier to a
// successor node over the NIC fabric, concurrently with foreground
// traffic, and prove the cutover. Phase one runs the migration twice —
// once live (racing the writer's second half and a stream of foreground
// restores, exercising the catch-up rounds) and once as the incremental
// final sync after the writer quiesces (the same call: a catch-up round
// copies only what the live pass missed). Phase two opens the successor
// store on the destination node and restores every version bit-exactly
// against the regenerated reference — the migrated rank either comes
// back byte-identical or the scenario reports a definitive error.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"score"
	"score/internal/report"
)

// The migrating rank writes migrateCheckpoints versions before the
// migration starts and migrateExtra more while the live pass runs.
const migrateCheckpoints, migrateExtra = 6, 2

// MigrateRow is one variant's run of the live-migration scenario.
type MigrateRow struct {
	// InjectFault is the variant: an early per-version migration copy
	// failed through the migrate fault site, exercising the retry path.
	InjectFault bool
	// Versions is the total the rank wrote: migrateCheckpoints + migrateExtra.
	Versions int
	// Live is the report of the migration racing foreground traffic;
	// Final the incremental sync after the writer quiesced. Final must be
	// validated; Live may or may not be, depending on how the race fell.
	Live, Final score.MigrationReport
	// MigratedBytes totals what the two passes copied; InjectedFaults
	// counts copies the fault site failed (0 without InjectFault).
	MigratedBytes  int64
	InjectedFaults int64
	// RestoredVersions counts versions the successor restored bit-exactly
	// in phase two; Recoverable reports all of them making it.
	RestoredVersions int
	Recoverable      bool
}

// MigrateResult holds one row per variant: copy fault off, then injected.
type MigrateResult struct{ Rows []MigrateRow }

// Render prints the cutover outcomes side by side.
func (r MigrateResult) Render(w io.Writer) error {
	tab := report.NewTable("Live migration — SSD tier to successor node, racing foreground traffic",
		"copy fault", "versions", "live rounds", "final validated", "migrated", "faults fired", "restored", "bit-exact")
	for _, row := range r.Rows {
		tab.AddRow(
			map[bool]string{false: "off", true: "injected"}[row.InjectFault],
			row.Versions,
			row.Live.Rounds,
			yesNo(row.Final.Validated),
			sizeMB(row.MigratedBytes),
			row.InjectedFaults,
			fmt.Sprintf("%d/%d", row.RestoredVersions, row.Versions),
			yesNo(row.Recoverable),
		)
	}
	return tab.Render(w)
}

// Migration runs the scenario without a copy fault, then with one, each
// variant's two phases as the shots "migrate/fault-<bool>/live" and
// ".../successor". Deterministic: the same Run produces the identical
// result.
func Migration(run Run) (MigrateResult, error) {
	rows, err := storeSweep(run, []bool{false, true}, migrateRun)
	return MigrateResult{Rows: rows}, err
}

// migrateRun runs one variant on the store root root.
func migrateRun(run Run, root string, injectFault bool) (MigrateRow, error) {
	const total = migrateCheckpoints + migrateExtra
	res := MigrateRow{InjectFault: injectFault, Versions: total}
	// The migrating rank's store and its successor on the destination node.
	src, dst := storeDir(root, 0, "local", 0), storeDir(root, 1, "migrated", 0)
	label := fmt.Sprintf("migrate/fault-%t", injectFault)

	// Phase one: write the base set, then race the live migration against
	// the writer's tail and a foreground restore stream.
	sim, err := newSimShot(run, label+"/live", nil, score.WithNodes(2), score.WithGPUsPerNode(1))
	if err != nil {
		return res, err
	}
	var rules []score.FaultRule
	if injectFault {
		rules = append(rules, score.FailNth(score.FaultMigrate, 2))
	}
	inj := sim.NewFaultInjector(scenarioSeed, rules...)

	_, err = sim.run(true, func() error {
		cl, err := sim.client(0, 0, storeOptions(src, score.WithAsyncHostInit(), score.WithFaultInjector(inj))...)
		if err != nil {
			return err
		}
		write := func(v int64) error {
			if err := cl.Checkpoint(v, rankPayload(0, v)); err != nil {
				return fmt.Errorf("experiments: checkpoint %d: %w", v, err)
			}
			cl.Compute(storeInterval)
			return nil
		}
		for v := int64(0); v < migrateCheckpoints; v++ {
			if err := write(v); err != nil {
				return err
			}
		}
		// Live pass: the migration, the writer's tail, and a restore
		// stream all contend on the same fabric.
		wg := sim.NewWaitGroup()
		var liveErr, fgErr error
		wg.Add(1)
		sim.Clock().Go(func() {
			defer wg.Done()
			res.Live, liveErr = sim.MigrateRank(cl, 1, dst)
		})
		wg.Add(1)
		sim.Clock().Go(func() {
			defer wg.Done()
			for v := int64(0); v < migrateCheckpoints; v++ {
				if _, err := cl.Restart(v); err != nil {
					fgErr = fmt.Errorf("experiments: foreground restart %d: %w", v, err)
					return
				}
				cl.Compute(storeInterval / 2)
			}
		})
		for v := int64(migrateCheckpoints); v < total; v++ {
			if err := write(v); err != nil {
				return err
			}
		}
		if err := cl.WaitFlush(); err != nil {
			return err
		}
		wg.Wait()
		if fgErr != nil {
			return fgErr
		}
		// A live pass losing its convergence race to the writer is a
		// definitive, reported outcome — not silent divergence. The final
		// sync below must then finish the job.
		if liveErr != nil && !errors.Is(liveErr, score.ErrMigrationIncomplete) {
			return liveErr
		}
		// Final sync on the quiesced store: incremental (only versions the
		// live pass missed move) and must validate.
		if res.Final, err = sim.MigrateRank(cl, 1, dst); err != nil {
			return err
		}
		res.MigratedBytes = res.Live.Bytes + res.Final.Bytes
		res.InjectedFaults = inj.InjectedAt(score.FaultMigrate)
		if n := cl.Stats().Migrations; n != 2 {
			return fmt.Errorf("experiments: expected 2 migration passes in stats, got %d", n)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	if !res.Final.Validated {
		return res, fmt.Errorf("%w: final sync not validated", score.ErrMigrationIncomplete)
	}

	// Phase two: the successor node opens the migrated store and restores
	// every version against the regenerated reference.
	sim2, err := newSimShot(run, label+"/successor", nil, score.WithNodes(2), score.WithGPUsPerNode(1))
	if err != nil {
		return res, err
	}
	_, err = sim2.run(true, func() error {
		cl, err := sim2.client(1, 0, storeOptions(dst)...)
		if err != nil {
			return err
		}
		if got := len(cl.RecoveredVersions()); got != total {
			return fmt.Errorf("experiments: successor recovered %d versions, want %d", got, total)
		}
		for v := int64(0); v < total; v++ {
			got, err := cl.Restart(v)
			if err != nil {
				return fmt.Errorf("experiments: successor restart %d: %w", v, err)
			}
			if !bytes.Equal(got, rankPayload(0, v)) {
				return fmt.Errorf("experiments: successor restored v%d with wrong bytes", v)
			}
			res.RestoredVersions++
		}
		res.Recoverable = res.RestoredVersions == total
		return nil
	})
	return res, err
}
