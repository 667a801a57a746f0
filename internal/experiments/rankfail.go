// Rank-failure scenario: the cluster failure model end to end. Phase one
// runs a multi-rank job under a seeded kill schedule that takes out a
// whole node mid-flush; phase two deletes the dead node's SSD contents
// (a node loss takes its local stores with it), restarts every rank, and
// restores the newest globally committed version — which must come back
// bit-exact on every rank. With partner-copy replication the node kill
// is survivable (the dead ranks' checkpoints live on the next node's
// SSD); without it the scenario reports the job unrecoverable rather
// than ever returning wrong bytes.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"score"
	"score/internal/report"
)

// The rank-failure job: rankFailNodes nodes of rankFailGPUsPerNode GPUs
// (rank = node*rankFailGPUsPerNode + gpu), each rank writing
// rankFailCheckpoints versions. Node killNode's ranks die at killAt, 2.5
// compute intervals in: mid-flush of an early version.
const (
	rankFailNodes       = 2
	rankFailGPUsPerNode = 2
	rankFailCheckpoints = 6
	killNode            = 0
	killAt              = storeInterval*2 + storeInterval/2
)

// The store-backed scenarios (rank failure, live migration, elastic
// restart) write storeSize-byte payloads storeInterval of compute apart.
// Every scenario draws its payloads and fault schedules from
// scenarioSeed.
const (
	storeSize     = 1 << 20
	storeInterval = 10 * time.Millisecond
	scenarioSeed  = 2023
)

// RankFailRow is one variant's run of the rank-failure scenario.
type RankFailRow struct {
	// PartnerCopy is the variant: partner-copy replication on or off.
	// Without it a node kill must be reported unrecoverable.
	PartnerCopy bool
	// Ranks is the job size; Killed lists the ranks that died, ascending.
	Ranks  int
	Killed []int
	// RankDeaths and CommitLag are the running tracker's view at the end
	// of phase one (before restart).
	RankDeaths int64
	CommitLag  int64
	// PartnerCopies/PartnerCopyBytes sum the replicas the job staged on
	// partner SSDs (0 without PartnerCopy).
	PartnerCopies, PartnerCopyBytes int64
	// Recoverable reports whether a globally committed version survived;
	// LatestConsistent is that version (-1 when none).
	Recoverable      bool
	LatestConsistent int64
	// RestoredRanks counts ranks that restored LatestConsistent
	// bit-exactly after the restart (equals Ranks when Recoverable).
	RestoredRanks int
}

// RankFailResult holds one row per variant: partner copy off, then on.
type RankFailResult struct{ Rows []RankFailRow }

// Render prints the recovery outcomes side by side: a full-node kill
// mid-flush is survivable only with replication.
func (r RankFailResult) Render(w io.Writer) error {
	tab := report.NewTable("Rank failure — node kill mid-flush, restart from LatestConsistent()",
		"partner copy", "ranks killed", "commit lag", "partner bytes", "recoverable", "restored version", "ranks restored")
	for _, row := range r.Rows {
		restored := "—"
		if row.Recoverable {
			restored = fmt.Sprintf("v%d", row.LatestConsistent)
		}
		tab.AddRow(
			map[bool]string{false: "off", true: "on"}[row.PartnerCopy],
			len(row.Killed), row.CommitLag,
			sizeMB(row.PartnerCopyBytes),
			yesNo(row.Recoverable),
			restored,
			fmt.Sprintf("%d/%d", row.RestoredRanks, row.Ranks),
		)
	}
	return tab.Render(w)
}

// yesNo prints a scenario's pass/fail column.
func yesNo(ok bool) string { return map[bool]string{false: "NO", true: "yes"}[ok] }

// storeDir is the durable store of rank on node under a scenario's store
// root: <root>/node<node>/<kind>/rank<rank>. Every store a node hosts
// lives under its node directory, so deleting that directory is the
// node's disk dying.
func storeDir(root string, node int, kind string, rank int) string {
	return filepath.Join(root, fmt.Sprintf("node%d", node), kind, fmt.Sprintf("rank%d", rank))
}

// storeSweep runs a store-backed scenario once per variant, in order,
// each on a scratch store root made with os.MkdirTemp and removed once
// the variant is done, and returns one row per variant. An incomplete
// Scale is refused before any root is made.
func storeSweep[V, R any](run Run, variants []V, scenario func(run Run, root string, v V) (R, error)) ([]R, error) {
	if err := run.Scale.check(); err != nil {
		return nil, err
	}
	rows := make([]R, 0, len(variants))
	for _, v := range variants {
		root, err := os.MkdirTemp("", "score-store-*")
		if err != nil {
			return rows, err
		}
		row, err := scenario(run, root, v)
		if err := errors.Join(err, os.RemoveAll(root)); err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// storeOptions are a store-backed scenario client's options, extra
// included: small caches over the durable store in dir.
func storeOptions(dir string, extra ...score.ClientOption) []score.ClientOption {
	return append([]score.ClientOption{
		score.WithGPUCache(16 * storeSize), score.WithHostCache(16 * storeSize), score.WithStore(dir),
	}, extra...)
}

// rankPayload deterministically generates rank/version-unique bytes, so
// phase two can verify restored data against a regenerated reference.
func rankPayload(rank int, version int64) []byte {
	buf := make([]byte, storeSize)
	seed := uint64(scenarioSeed)
	x := seed*0x9E3779B97F4A7C15 ^ uint64(rank+1)*0xBF58476D1CE4E5B9 ^
		uint64(version+1)*0x94D049BB133111EB
	if x == 0 {
		x = 1
	}
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}

// RankFailure runs the scenario without partner copies, then with them,
// each variant's two phases as the shots
// "rankfail/partner-<bool>/rank-kill-false/run" and ".../restart" (the
// whole node dies, not one rank). Deterministic: the same Run produces
// the identical result.
func RankFailure(run Run) (RankFailResult, error) {
	rows, err := storeSweep(run, []bool{false, true}, rankFailRun)
	return RankFailResult{Rows: rows}, err
}

// rankFailRun runs one variant on the store root root.
func rankFailRun(run Run, root string, partner bool) (RankFailRow, error) {
	ranks := rankFailNodes * rankFailGPUsPerNode
	res := RankFailRow{PartnerCopy: partner, Ranks: ranks, LatestConsistent: -1}
	for g := 0; g < rankFailGPUsPerNode; g++ {
		res.Killed = append(res.Killed, killNode*rankFailGPUsPerNode+g)
	}
	// options are rank's client options in either phase, extra included:
	// its local store and, with partner, its replica on the next node's
	// SSD.
	options := func(node, rank int, extra ...score.ClientOption) []score.ClientOption {
		opts := storeOptions(storeDir(root, node, "local", rank), extra...)
		if partner {
			opts = append(opts, score.WithPartnerCopy(storeDir(root, (node+1)%rankFailNodes, "partner", rank)))
		}
		return opts
	}
	label := fmt.Sprintf("rankfail/partner-%t/rank-kill-false", partner)

	// Phase one: run the job under the kill schedule.
	sim, err := newSimShot(run, label+"/run", nil,
		score.WithNodes(rankFailNodes), score.WithGPUsPerNode(rankFailGPUsPerNode))
	if err != nil {
		return res, err
	}
	tracker, err := sim.NewCommitTracker(ranks)
	if err != nil {
		return res, err
	}
	inj := sim.NewFaultInjector(scenarioSeed)
	inj.AddKills(score.KillNode(killNode, killAt))

	// The killed ranks never drain.
	_, err = sim.run(false, func() error {
		clients, err := sim.clients(func(node, rank int) []score.ClientOption {
			return options(node, rank,
				// Async host registration keeps setup near zero virtual
				// time, so killAt lands mid-job rather than during
				// construction (a 32 GiB pinned registration alone costs
				// seconds of virtual time).
				score.WithAsyncHostInit(),
				score.WithCommitTracker(tracker, rank),
				score.WithFaultInjector(inj))
		})
		if err != nil {
			return err
		}
		wg := sim.NewWaitGroup()
		for rank, cl := range clients {
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				for v := int64(0); v < rankFailCheckpoints; v++ {
					if err := cl.Checkpoint(v, rankPayload(rank, v)); err != nil {
						return // killed mid-run: the sweep owns the rest
					}
					cl.Compute(storeInterval)
				}
				_ = cl.WaitFlush() // ErrKilled when death raced the drain
			})
		}
		wg.Wait()
		for _, cl := range clients {
			st := cl.Stats()
			res.PartnerCopies += st.PartnerCopies
			res.PartnerCopyBytes += st.PartnerCopyBytes
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.RankDeaths = tracker.RankDeaths()
	res.CommitLag = tracker.CommitLag()

	// A whole-node death takes its SSD contents with it — local stores
	// and any partner replicas it hosted.
	if err := os.RemoveAll(filepath.Join(root, fmt.Sprintf("node%d", killNode))); err != nil {
		return res, err
	}

	// Phase two: restart every rank and recompute the consistent frontier
	// from what each recovered store actually holds — ground truth, not
	// the running tracker's view.
	sim2, err := newSimShot(run, label+"/restart", nil,
		score.WithNodes(rankFailNodes), score.WithGPUsPerNode(rankFailGPUsPerNode))
	if err != nil {
		return res, err
	}
	restartTracker, err := sim2.NewCommitTracker(ranks)
	if err != nil {
		return res, err
	}
	_, err = sim2.run(true, func() error {
		clients, err := sim2.clients(func(node, rank int) []score.ClientOption {
			return options(node, rank)
		})
		if err != nil {
			return err
		}
		for rank, cl := range clients {
			for _, v := range cl.RecoveredVersions() {
				restartTracker.MarkDurable(rank, v)
			}
		}
		// Without a version durable on every rank the job is
		// unrecoverable: nothing is restored.
		if latest, ok := restartTracker.LatestConsistent(); ok {
			res.LatestConsistent = latest
			for rank, cl := range clients {
				got, err := cl.Restart(latest)
				if err != nil {
					return fmt.Errorf("experiments: rank %d restart of v%d: %w", rank, latest, err)
				}
				if !bytes.Equal(got, rankPayload(rank, latest)) {
					return fmt.Errorf("experiments: rank %d restored v%d with wrong bytes", rank, latest)
				}
				res.RestoredRanks++
			}
		}
		res.Recoverable = res.RestoredRanks == ranks
		return nil
	})
	return res, err
}
