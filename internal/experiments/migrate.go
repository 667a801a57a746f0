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
	"path/filepath"

	"score"
)

// The migrating rank writes migrateCheckpoints versions before the
// migration starts and migrateExtra more while the live pass runs.
const migrateCheckpoints, migrateExtra = 6, 2

// MigrateConfig parameterizes one live-migration scenario.
type MigrateConfig struct {
	// InjectFault fails an early per-version migration copy through the
	// migrate fault site, exercising the retry path.
	InjectFault bool
	// StoreRoot backs the source and successor stores:
	// <root>/node0/local/rank0 and <root>/node1/migrated/rank0.
	StoreRoot string
}

// MigrateResult reports one scenario run.
type MigrateResult struct {
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

func (c MigrateConfig) srcDir() string {
	return filepath.Join(c.StoreRoot, "node0", "local", "rank0")
}

func (c MigrateConfig) dstDir() string {
	return filepath.Join(c.StoreRoot, "node1", "migrated", "rank0")
}

// Migration runs the scenario, its two phases as the shots
// "migrate/fault-<bool>/live" and ".../successor".
// Deterministic: the same config (and StoreRoot contents) produces the
// identical result.
func Migration(run Run, cfg MigrateConfig) (MigrateResult, error) {
	if cfg.StoreRoot == "" {
		return MigrateResult{}, errors.New("experiments: MigrateConfig.StoreRoot required")
	}
	const total = migrateCheckpoints + migrateExtra
	res := MigrateResult{Versions: total}
	label := fmt.Sprintf("migrate/fault-%t", cfg.InjectFault)

	// Phase one: write the base set, then race the live migration against
	// the writer's tail and a foreground restore stream.
	sim, err := newSimShot(run, label+"/live", nil, score.WithNodes(2), score.WithGPUsPerNode(1))
	if err != nil {
		return res, err
	}
	var rules []score.FaultRule
	if cfg.InjectFault {
		rules = append(rules, score.FailNth(score.FaultMigrate, 2))
	}
	inj := sim.NewFaultInjector(scenarioSeed, rules...)

	_, err = sim.run(true, func() error {
		cl, err := sim.client(0, 0,
			score.WithGPUCache(16*storeSize),
			score.WithHostCache(16*storeSize),
			score.WithAsyncHostInit(),
			score.WithStore(cfg.srcDir()),
			score.WithFaultInjector(inj))
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
			res.Live, liveErr = sim.MigrateRank(cl, 1, cfg.dstDir())
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
		if res.Final, err = sim.MigrateRank(cl, 1, cfg.dstDir()); err != nil {
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
		cl, err := sim2.client(1, 0,
			score.WithGPUCache(16*storeSize),
			score.WithHostCache(16*storeSize),
			score.WithStore(cfg.dstDir()))
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
