package score

import (
	"errors"
	"fmt"
	"time"

	"score/internal/coord"
	"score/internal/core"
	"score/internal/faultinject"
	"score/internal/trace"
)

// This file is the cluster failure model's public surface: coordinated
// multi-rank commit tracking, rank/node kill injection, partner-copy
// replication, and the restart ladder they enable. See DESIGN.md §11.

// ErrKilled is returned by every API call on a client whose rank was
// killed by fault injection. Match with errors.Is.
var ErrKilled = core.ErrKilled

// CommitTracker is the job-wide group-commit view (VELOC's coordinated
// checkpointing): a version is globally committed only once every rank
// holds it on a durable tier. Create one per job with Sim.NewCommitTracker
// and attach it to each rank's client with WithCommitTracker; restarts
// then resume from LatestConsistent instead of each rank's private
// newest version. All ranks of the job share it; use it from the tasks of
// the simulation's clock, as every rank's client is used.
type CommitTracker struct {
	inner *coord.Tracker
}

// NewCommitTracker builds a group-commit tracker for a job of the given
// rank count and, when sampling is enabled, registers its commit-frontier
// probes (coord.committed_version, coord.commit_lag,
// coord.mean_commit_wait_us, coord.rank_deaths). The tracker runs on the
// simulation clock, so per-version group-commit waits (first rank
// durable → globally committed) are measured; with tracing enabled each
// global commit is also ledgered as a cluster-wide lifecycle event
// (rank -1, kind group-commit).
func (s *Sim) NewCommitTracker(ranks int) (*CommitTracker, error) {
	return s.wireTracker(coord.New(ranks))
}

// wireTracker wires a new tracker (or passes its constructor's error on)
// to this simulation: the clock times its group-commit waits, the trace
// ledger records each global commit, and the sampler polls its probes.
func (s *Sim) wireTracker(t *coord.Tracker, err error) (*CommitTracker, error) {
	if err != nil {
		return nil, err
	}
	t.SetNow(s.Clock().Now)
	if tracer := s.tb.Tracer; tracer != nil {
		t.SetCommitObserver(func(version int64, wait time.Duration) {
			tracer.Lifecycle(-1, version, trace.LGroupCommit, "",
				fmt.Sprintf("wait %v", wait))
		})
	}
	if s.tb.Sampler != nil {
		t.RegisterProbes(s.tb.Sampler, "")
	}
	return &CommitTracker{inner: t}, nil
}

// CommitWaits returns the per-version group-commit waits: for each
// globally committed version, how long it sat durable on the fastest
// rank before the last rank caught up.
func (t *CommitTracker) CommitWaits() map[int64]time.Duration {
	return t.inner.CommitWaits()
}

// MeanCommitWait averages the group-commit waits over committed versions.
func (t *CommitTracker) MeanCommitWait() time.Duration {
	return t.inner.MeanCommitWait()
}

// Ranks returns the job size the tracker was built for.
func (t *CommitTracker) Ranks() int { return t.inner.Ranks() }

// LatestConsistent returns the newest globally committed version — the
// restart point after a failure. ok is false while no version is durable
// on every rank.
func (t *CommitTracker) LatestConsistent() (int64, bool) {
	return t.inner.LatestConsistent()
}

// CommittedVersions lists every globally committed version, ascending.
func (t *CommitTracker) CommittedVersions() []int64 {
	return t.inner.CommittedVersions()
}

// CommitLag is the distance between the newest version any rank has made
// durable and the newest globally committed version — the work a failure
// right now would roll back.
func (t *CommitTracker) CommitLag() int64 { return t.inner.CommitLag() }

// RankDeaths counts the distinct ranks reported dead.
func (t *CommitTracker) RankDeaths() int64 { return t.inner.RankDeaths() }

// DeadRanks lists the distinct ranks reported dead, ascending.
func (t *CommitTracker) DeadRanks() []int { return t.inner.DeadRanks() }

// MarkDurable reports rank holding version on a durable tier. Clients
// attached with WithCommitTracker report automatically; the manual form
// feeds recovery — a restarted rank replays its RecoveredVersions into a
// fresh tracker to recompute the consistent frontier from ground truth.
func (t *CommitTracker) MarkDurable(rank int, version int64) {
	t.inner.MarkDurable(rank, version)
}

// MarkLost reports that rank no longer holds version durably.
func (t *CommitTracker) MarkLost(rank int, version int64) {
	t.inner.MarkLost(rank, version)
}

// RetractRank withdraws every durability claim rank ever made — the
// full-node-death case where the rank's local SSD died with it. Versions
// it alone held durable stop being committed.
func (t *CommitTracker) RetractRank(rank int) { t.inner.RetractRank(rank) }

// WithCommitTracker attaches the job-wide tracker: the client reports
// every durable/lost fate transition (and its own death) under the given
// rank number. Rank must be unique per client and in [0, tracker.Ranks()).
func WithCommitTracker(t *CommitTracker, rank int) ClientOption {
	return func(c *clientConfig) {
		c.tracker = t
		c.rank = rank
	}
}

// WithPartnerCopy enables partner-copy replication (the classic
// multi-level-checkpointing partner scheme): every checkpoint that lands
// on this rank's local SSD is also staged, best-effort, on the SSD of the
// next node's store at dir, crossing both nodes' NIC links. A restart can
// then restore the version from the partner node even after this node's
// SSD died with it — the restore ladder becomes GPU → host → local SSD →
// partner SSD → PFS. Requires a cluster of at least two nodes; dir names
// the partner store directory (normally <partner node's store root>).
func WithPartnerCopy(dir string) ClientOption {
	return func(c *clientConfig) { c.partnerDir = dir }
}

// Kill simulates this rank dying abruptly at the current simulated time:
// the GPU and host tiers vanish, in-flight flushes resolve as lost, and
// every subsequent API call returns ErrKilled. Survivor clients on the
// same node (and their shared caches and fabric links) keep running.
// Usually driven by an injector kill schedule (KillRank/KillNode) rather
// than called directly.
func (c *Client) Kill() { c.inner.Kill() }

// Killed reports whether this rank has been killed.
func (c *Client) Killed() bool { return c.inner.Killed() }

// KillSpec schedules the death of one rank (or a whole node) at a
// virtual time; attach with FaultInjector.AddKills or build with
// KillRank/KillNode.
type KillSpec = faultinject.KillSpec

// KillRank schedules the rank on (node, gpu) to die at simulated time at.
var KillRank = faultinject.KillRank

// KillNode schedules every rank on node to die at simulated time at —
// modeling full node loss, local SSD included.
var KillNode = faultinject.KillNode

// The partner-copy fault sites (see fault.go for the rest).
const (
	// FaultPartner is the inter-node replication path (both NICs).
	FaultPartner = faultinject.SitePartner
	// FaultPartnerStoreWrite is a durable write to the partner's store.
	FaultPartnerStoreWrite = faultinject.SitePartnerStoreWrite
	// FaultPartnerStoreRead is a durable read from the partner's store.
	FaultPartnerStoreRead = faultinject.SitePartnerStoreRead
)

// Epoch returns the tracker's membership epoch (0 for a job's first
// incarnation; an elastic restart's tracker carries the reshard epoch).
func (t *CommitTracker) Epoch() int { return t.inner.Epoch() }

// Reshard accumulates shard-durability reports during an elastic
// restart: the old job's checkpoint state, sharded per old rank, is
// re-mapped onto a new rank count and the group-commit frontier is
// recomputed from what the surviving stores actually hold. See
// internal/coord for the full semantics.
type Reshard = coord.Reshard

// NewReshard starts an elastic-restart recipe re-sharding a job from
// `from` old ranks onto `to` new ranks at the given new membership epoch
// (>= 1; the old incarnation is epoch 0 unless it was itself resharded).
func NewReshard(from, to, epoch int) (*Reshard, error) {
	return coord.NewReshard(from, to, epoch)
}

// NewCommitTrackerFrom builds the new membership's group-commit tracker
// from a completed reshard recipe — seeded so the adopted shards count
// as durable and LatestConsistent equals the reshard's frontier — and
// wires it to this simulation's clock, sampler, and trace ledger like
// NewCommitTracker does.
func (s *Sim) NewCommitTrackerFrom(r *Reshard) (*CommitTracker, error) {
	return s.wireTracker(r.Tracker())
}

// StoreVersions lists the checkpoint versions a durable store directory
// holds, ascending, without opening a client on it — the scan an elastic
// restart recipe runs per old shard to feed Reshard.MarkShardDurable
// from ground truth.
func StoreVersions(dir string) ([]int64, error) {
	st, _, err := openStore(dir, false)
	if err != nil {
		return nil, err
	}
	return st.IDs(), nil
}

// partnerNode returns the partner for node under the ring scheme.
func partnerNode(node, nodes int) (int, error) {
	if nodes < 2 {
		return 0, errors.New("score: partner copy needs at least two nodes")
	}
	p := (node + 1) % nodes
	if p == node {
		return 0, fmt.Errorf("score: node %d has no distinct partner", node)
	}
	return p, nil
}
