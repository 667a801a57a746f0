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
	"os"
	"path/filepath"
	"time"

	"score"
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

// RankFailConfig parameterizes one rank-failure scenario.
type RankFailConfig struct {
	// KillRankOnly kills a single rank (GPU 0 of killNode) instead of
	// the whole node: a process crash, not a node loss, so the node's
	// SSD contents survive the failure.
	KillRankOnly bool
	// PartnerCopy enables partner-copy replication; without it a node
	// kill must be reported unrecoverable.
	PartnerCopy bool
	// StoreRoot is the directory backing every rank's durable stores:
	// <root>/node<i>/local/rank<r> and <root>/node<i>/partner/rank<r>.
	// Node death is modeled by deleting <root>/node<killNode>.
	StoreRoot string
}

// RankFailResult reports one scenario run.
type RankFailResult struct {
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

func (c RankFailConfig) localDir(node, rank int) string {
	return filepath.Join(c.StoreRoot, fmt.Sprintf("node%d", node), "local", fmt.Sprintf("rank%d", rank))
}

// partnerDir is where rank r (on node) replicates to: the partner node's
// SSD. It lives under the partner's node directory so a kill of that
// node destroys the replicas it hosts.
func (c RankFailConfig) partnerDir(node, rank int) string {
	p := (node + 1) % rankFailNodes
	return filepath.Join(c.StoreRoot, fmt.Sprintf("node%d", p), "partner", fmt.Sprintf("rank%d", rank))
}

// options are rank's client options in either phase, extra included:
// small caches over its local store, and its partner copy when on.
func (c RankFailConfig) options(node, rank int, extra ...score.ClientOption) []score.ClientOption {
	opts := append([]score.ClientOption{
		score.WithGPUCache(16 * storeSize),
		score.WithHostCache(16 * storeSize),
		score.WithStore(c.localDir(node, rank)),
	}, extra...)
	if c.PartnerCopy {
		opts = append(opts, score.WithPartnerCopy(c.partnerDir(node, rank)))
	}
	return opts
}

// RankFailure runs the scenario, its two phases as the shots
// "rankfail/partner-<bool>/rank-kill-<bool>/run" and ".../restart".
// Deterministic: the same config (and StoreRoot contents) produces the
// identical result.
func RankFailure(run Run, cfg RankFailConfig) (RankFailResult, error) {
	if cfg.StoreRoot == "" {
		return RankFailResult{}, errors.New("experiments: RankFailConfig.StoreRoot required")
	}
	ranks := rankFailNodes * rankFailGPUsPerNode
	res := RankFailResult{Ranks: ranks, LatestConsistent: -1}
	if cfg.KillRankOnly {
		res.Killed = []int{killNode * rankFailGPUsPerNode}
	} else {
		for g := 0; g < rankFailGPUsPerNode; g++ {
			res.Killed = append(res.Killed, killNode*rankFailGPUsPerNode+g)
		}
	}

	label := fmt.Sprintf("rankfail/partner-%t/rank-kill-%t", cfg.PartnerCopy, cfg.KillRankOnly)

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
	if cfg.KillRankOnly {
		inj.AddKills(score.KillRank(killNode, 0, killAt))
	} else {
		inj.AddKills(score.KillNode(killNode, killAt))
	}

	// The killed ranks never drain.
	_, err = sim.run(false, func() error {
		clients, err := sim.clients(func(node, rank int) []score.ClientOption {
			return cfg.options(node, rank,
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
			rank, cl := rank, cl
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
	// and any partner replicas it hosted. A single-rank (process) crash
	// leaves the disk intact.
	if !cfg.KillRankOnly {
		if err := os.RemoveAll(filepath.Join(cfg.StoreRoot, fmt.Sprintf("node%d", killNode))); err != nil {
			return res, err
		}
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
			return cfg.options(node, rank)
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
