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
	"fmt"
	"io"

	"score"
	"score/internal/report"
)

// elasticCheckpoints is the number of versions each old rank writes.
const elasticCheckpoints = 4

// ElasticRow is one membership transition's run of the elastic-restart
// scenario.
type ElasticRow struct {
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

// ElasticResult holds one row per transition: 4 → 2 ranks, then 2 → 3.
type ElasticResult struct{ Rows []ElasticRow }

// Render prints each transition's recomputed frontier and restore
// outcome.
func (r ElasticResult) Render(w io.Writer) error {
	tab := report.NewTable("Elastic restart — re-shard N ranks onto M at a new membership epoch",
		"transition", "epoch", "committed", "frontier", "tracker consistent", "shards restored", "recoverable")
	for _, row := range r.Rows {
		tab.AddRow(
			fmt.Sprintf("%d -> %d ranks", row.FromRanks, row.ToRanks),
			row.Epoch,
			row.Committed,
			fmt.Sprintf("v%d", row.Frontier),
			yesNo(row.TrackerConsistent),
			fmt.Sprintf("%d/%d", row.RestoredShards, row.FromRanks),
			yesNo(row.Recoverable),
		)
	}
	return tab.Render(w)
}

// Elastic re-shards in both directions, shrinking 4 ranks onto 2, then
// growing 2 onto 3, each transition's two memberships as the shots
// "elastic/<from>-to-<to>/old" and ".../new". Deterministic: the same Run
// produces the identical result.
func Elastic(run Run) (ElasticResult, error) {
	rows, err := storeSweep(run, [][2]int{{4, 2}, {2, 3}}, elasticRun)
	return ElasticResult{Rows: rows}, err
}

// elasticRun runs the transition from ranks[0] to ranks[1] on the store
// root root, old shard s's store at <root>/node0/local/rank<s>.
func elasticRun(run Run, root string, ranks [2]int) (ElasticRow, error) {
	from, to := ranks[0], ranks[1]
	res := ElasticRow{FromRanks: from, ToRanks: to, Epoch: 1, Frontier: -1}
	shardDir := func(shard int) string { return storeDir(root, 0, "local", shard) }

	label := fmt.Sprintf("elastic/%d-to-%d", from, to)

	// Phase one: the old membership writes to a group-committed frontier
	// and shuts down cleanly.
	sim, err := newSimShot(run, label+"/old", nil, score.WithNodes(1), score.WithGPUsPerNode(from))
	if err != nil {
		return res, err
	}
	tracker, err := sim.NewCommitTracker(from)
	if err != nil {
		return res, err
	}
	var runErr error
	_, err = sim.run(true, func() error {
		clients, err := sim.clients(func(_, rank int) []score.ClientOption {
			return storeOptions(shardDir(rank), score.WithAsyncHostInit(), score.WithCommitTracker(tracker, rank))
		})
		if err != nil {
			return err
		}
		wg := sim.NewWaitGroup()
		for rank, cl := range clients {
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
	reshard, err := score.NewReshard(from, to, res.Epoch)
	if err != nil {
		return res, err
	}
	for shard := 0; shard < from; shard++ {
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
	sim2, err := newSimShot(run, label+"/new", nil, score.WithNodes(1), score.WithGPUsPerNode(to))
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
		for rank := 0; rank < to; rank++ {
			for _, shard := range reshard.ShardsOf(rank) {
				cl, err := sim2.client(0, rank, storeOptions(shardDir(shard))...)
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
	res.Recoverable = err == nil && res.RestoredShards == from
	return res, err
}
