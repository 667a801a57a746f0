// Elastic-restart scenario: re-shard checkpoint state written by N ranks
// onto a new membership of M ranks. Phase one runs an N-rank job to a
// group-committed frontier and shuts it down cleanly. Phase two is the
// restart recipe: scan each old shard's surviving store (ground truth),
// feed the reshard ledger, recompute the frontier for the new
// membership, seed an M-rank group-commit tracker at the new epoch, and
// have each new rank restore every shard it adopted bit-exactly at the
// frontier. Works in both directions — shrink (M < N) maps several
// shards onto one rank, grow (M > N) leaves some ranks shard-less but
// still frontier-consistent.
package experiments

import (
	"bytes"
	"errors"
	"fmt"

	"score"
)

// elasticCheckpoints is the number of versions each old rank writes.
const elasticCheckpoints = 4

// ElasticConfig parameterizes one elastic-restart scenario.
type ElasticConfig struct {
	// FromRanks is the old membership size; ToRanks the new one (smaller
	// to shrink, larger to grow).
	FromRanks, ToRanks int
	// StoreRoot backs every shard's durable store (the rankfail layout:
	// <root>/node<i>/local/rank<r>).
	StoreRoot string
}

// ElasticResult reports one scenario run.
type ElasticResult struct {
	// FromRanks → ToRanks at Epoch is the membership transition.
	FromRanks, ToRanks, Epoch int
	// Committed counts versions every old shard holds; Frontier is the
	// newest (-1 when none) — the version the new membership restores.
	Committed int
	Frontier  int64
	// TrackerConsistent reports the seeded new-membership tracker
	// agreeing with the reshard ledger (LatestConsistent == Frontier at
	// the new epoch).
	TrackerConsistent bool
	// RestoredShards counts old shards restored bit-exactly at the
	// frontier by their adopting new rank; Recoverable means all of them.
	RestoredShards int
	Recoverable    bool
}

// Elastic runs the scenario, its two memberships as the shots
// "elastic/<from>-to-<to>/old" and ".../new". Deterministic: the same
// config (and StoreRoot contents) produces the identical result.
func Elastic(run Run, cfg ElasticConfig) (ElasticResult, error) {
	if cfg.StoreRoot == "" {
		return ElasticResult{}, errors.New("experiments: ElasticConfig.StoreRoot required")
	}
	res := ElasticResult{FromRanks: cfg.FromRanks, ToRanks: cfg.ToRanks, Epoch: 1, Frontier: -1}
	shardDir := func(shard int) string {
		return RankFailConfig{StoreRoot: cfg.StoreRoot}.localDir(0, shard)
	}

	label := fmt.Sprintf("elastic/%d-to-%d", cfg.FromRanks, cfg.ToRanks)

	// Phase one: the old membership writes to a group-committed frontier
	// and shuts down cleanly.
	sim, err := newSimShot(run, label+"/old", nil, score.WithNodes(1), score.WithGPUsPerNode(cfg.FromRanks))
	if err != nil {
		return res, err
	}
	tracker, err := sim.NewCommitTracker(cfg.FromRanks)
	if err != nil {
		return res, err
	}
	var runErr error
	_, err = sim.run(true, func() error {
		clients, err := sim.clients(func(_, rank int) []score.ClientOption {
			return []score.ClientOption{
				score.WithGPUCache(16 * storeSize),
				score.WithHostCache(16 * storeSize),
				score.WithAsyncHostInit(),
				score.WithStore(shardDir(rank)),
				score.WithCommitTracker(tracker, rank),
			}
		})
		if err != nil {
			return err
		}
		wg := sim.NewWaitGroup()
		for rank, cl := range clients {
			rank, cl := rank, cl
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				for v := int64(0); v < elasticCheckpoints; v++ {
					if err := cl.Checkpoint(v, rankPayload(rank, v)); err != nil {
						runErr = fmt.Errorf("experiments: rank %d checkpoint %d: %w", rank, v, err)
						return
					}
					cl.Compute(storeInterval)
				}
				if err := cl.WaitFlush(); err != nil {
					runErr = err
				}
			})
		}
		wg.Wait()
		return runErr
	})
	if err != nil {
		return res, err
	}

	// Phase two: the restart recipe. Scan each shard's store — ground
	// truth, not the old tracker's view — into the reshard ledger.
	reshard, err := score.NewReshard(cfg.FromRanks, cfg.ToRanks, res.Epoch)
	if err != nil {
		return res, err
	}
	for shard := 0; shard < cfg.FromRanks; shard++ {
		versions, err := score.StoreVersions(shardDir(shard))
		if err != nil {
			return res, fmt.Errorf("experiments: scanning shard %d: %w", shard, err)
		}
		for _, v := range versions {
			reshard.MarkShardDurable(shard, v)
		}
	}
	res.Committed = len(reshard.Committed())
	frontier, ok := reshard.Frontier()
	if !ok {
		return res, nil // nothing completely held: unrecoverable, reported as such
	}
	res.Frontier = frontier

	// The new membership: seed its tracker from the reshard and restore
	// every adopted shard at the frontier.
	sim2, err := newSimShot(run, label+"/new", nil, score.WithNodes(1), score.WithGPUsPerNode(cfg.ToRanks))
	if err != nil {
		return res, err
	}
	tracker2, err := sim2.NewCommitTrackerFrom(reshard)
	if err != nil {
		return res, err
	}
	if latest, ok := tracker2.LatestConsistent(); ok && latest == frontier && tracker2.Epoch() == res.Epoch {
		res.TrackerConsistent = true
	}
	_, err = sim2.run(true, func() error {
		for rank := 0; rank < cfg.ToRanks; rank++ {
			for _, shard := range reshard.ShardsOf(rank) {
				cl, err := sim2.client(0, rank,
					score.WithGPUCache(16*storeSize),
					score.WithHostCache(16*storeSize),
					score.WithStore(shardDir(shard)))
				if err != nil {
					return err
				}
				got, err := cl.Restart(frontier)
				if err != nil {
					return fmt.Errorf("experiments: rank %d restoring shard %d at v%d: %w", rank, shard, frontier, err)
				}
				if !bytes.Equal(got, rankPayload(shard, frontier)) {
					return fmt.Errorf("experiments: shard %d restored v%d with wrong bytes", shard, frontier)
				}
				res.RestoredShards++
				if err := sim2.close(cl); err != nil {
					return err
				}
			}
		}
		return nil
	})
	res.Recoverable = err == nil && res.RestoredShards == cfg.FromRanks
	return res, err
}
