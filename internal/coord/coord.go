// Package coord tracks cluster-wide checkpoint consistency across the
// ranks of one job: the VELOC-style group-commit rule under which a
// checkpoint version only becomes restart-safe once *every* rank holds
// it at a durable tier. Each rank reports its per-version durability
// transitions (core's fate accounting drives this through the
// CommitHook interface); the tracker answers the two questions a
// restart path needs — which versions are globally committed, and what
// is the newest one — plus the monitoring view (commit lag, rank
// deaths) the observability layer samples.
//
// The tracker is mechanical on purpose: it records what ranks report
// and computes set intersections. Whether a dead rank's durable copies
// actually survived (process kill: node-local SSD intact; node kill:
// gone unless partner-copied) is the scenario layer's knowledge — on
// restart it rebuilds a fresh tracker from what the stores really
// hold, which is the ground truth the running tracker approximates.
package coord

import (
	"errors"
	"sort"
	"time"

	"score/internal/metrics"
)

// Tracker accumulates per-rank durability reports for one job. It takes
// no lock: the tasks of one clock use it, one at a time, or its owner
// does between runs. Versions must be non-negative (the runtime enforces
// this for checkpoint ids).
type Tracker struct {
	ranks  int
	epoch  int     // membership epoch (bumped by elastic restart)
	holds  holdSet // version -> ranks holding a durable copy
	high   int64   // highest version any rank reported durable
	any    bool    // a durable report has been seen
	dead   members
	deaths int64

	// Commit-wait attribution (optional; active once SetNow is called):
	// per version, when the first rank reported it durable and when it
	// became globally committed. The gap is the group-commit wait — the
	// time the fastest rank's version spent waiting for the stragglers.
	now         func() time.Duration
	firstAt     map[int64]time.Duration
	committedAt map[int64]time.Duration
	onCommit    func(version int64, wait time.Duration)
}

// holdSet maps a version to the members — ranks or old shards — that
// hold it.
type holdSet map[int64]members

// members is a set of ranks or shards.
type members map[int]struct{}

// mark records that member m holds version v and returns v's holders.
func (h holdSet) mark(m int, v int64) members {
	set := h[v]
	if set == nil {
		set = members{}
		h[v] = set
	}
	set[m] = struct{}{}
	return set
}

// drop removes member m's claim on version v.
func (h holdSet) drop(m int, v int64) {
	if set := h[v]; set != nil {
		delete(set, m)
		if len(set) == 0 {
			delete(h, v)
		}
	}
}

// complete lists, ascending, the versions all n members hold.
func (h holdSet) complete(n int) []int64 {
	var out []int64
	for v, set := range h {
		if len(set) == n {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// newest returns the newest version all n members hold; ok is false when
// there is none.
func (h holdSet) newest(n int) (version int64, ok bool) {
	for v, set := range h {
		if len(set) == n && (!ok || v > version) {
			version, ok = v, true
		}
	}
	return version, ok
}

// sorted lists the members, ascending.
func (m members) sorted() []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// New creates a tracker for a job of the given rank count, at membership
// epoch 0 (the job's first incarnation).
func New(ranks int) (*Tracker, error) {
	return NewAtEpoch(ranks, 0)
}

// NewAtEpoch creates a tracker for a job of the given rank count at an
// explicit membership epoch. Elastic restart uses this: each re-shard of
// the job onto a new rank count bumps the epoch, so reports from a stale
// incarnation are distinguishable from the live one's.
func NewAtEpoch(ranks, epoch int) (*Tracker, error) {
	if ranks < 1 {
		return nil, errors.New("coord: need at least one rank")
	}
	if epoch < 0 {
		return nil, errors.New("coord: membership epoch must be non-negative")
	}
	return &Tracker{
		ranks:       ranks,
		epoch:       epoch,
		holds:       holdSet{},
		dead:        members{},
		firstAt:     map[int64]time.Duration{},
		committedAt: map[int64]time.Duration{},
	}, nil
}

// Epoch returns the tracker's membership epoch.
func (t *Tracker) Epoch() int { return t.epoch }

// SetNow attaches a clock (typically simclock's Now) enabling
// commit-wait attribution: per version, the time from the first rank's
// durable report to global commit. Call before the run starts.
func (t *Tracker) SetNow(now func() time.Duration) { t.now = now }

// SetCommitObserver registers a callback fired once per version, at the
// moment it first becomes globally committed, with the commit wait it
// accumulated (zero unless SetNow was called). The observability layer
// hooks the lifecycle ledger here. Call before the run starts.
func (t *Tracker) SetCommitObserver(fn func(version int64, wait time.Duration)) { t.onCommit = fn }

// Ranks returns the job's rank count.
func (t *Tracker) Ranks() int { return t.ranks }

// MarkDurable records that rank holds version at a durable tier. Out-of-
// range ranks and negative versions are ignored (defensive: reports come
// from per-rank hooks).
func (t *Tracker) MarkDurable(rank int, version int64) {
	if version < 0 || rank < 0 || rank >= t.ranks {
		return
	}
	set := t.holds.mark(rank, version)
	if !t.any || version > t.high {
		t.high = version
		t.any = true
	}
	if t.now != nil {
		if _, seen := t.firstAt[version]; !seen {
			t.firstAt[version] = t.now()
		}
	}
	if len(set) < t.ranks {
		return
	}
	if _, done := t.committedAt[version]; done {
		return
	}
	var at time.Duration
	if t.now != nil {
		at = t.now()
	}
	t.committedAt[version] = at
	if t.onCommit != nil {
		t.onCommit(version, at-t.firstAt[version])
	}
}

// MarkLost retracts rank's claim on version — the rank's flush chain for
// it was aborted, or its copy died with the process before reaching a
// durable tier. Retracting a claim that was never made is a no-op.
func (t *Tracker) MarkLost(rank int, version int64) { t.holds.drop(rank, version) }

// RankDead records that rank died. Its existing durable claims stand —
// node-local checkpoint files outlive a process kill — and the restart
// path decides what actually survived; use RetractRank when a whole
// node's storage is known lost.
func (t *Tracker) RankDead(rank int) {
	if rank < 0 || rank >= t.ranks {
		return
	}
	if _, dup := t.dead[rank]; !dup {
		t.dead[rank] = struct{}{}
		t.deaths++
	}
}

// RetractRank drops every durable claim rank has made — the node-kill
// case, where the rank's local SSD died with it and no copy survives
// (partner replicas, tracked by the partner rank's restart-side
// reports, are unaffected).
func (t *Tracker) RetractRank(rank int) {
	for v := range t.holds {
		t.holds.drop(rank, v)
	}
}

// RankDeaths returns the number of distinct ranks reported dead.
func (t *Tracker) RankDeaths() int64 { return t.deaths }

// DeadRanks lists the ranks reported dead, ascending.
func (t *Tracker) DeadRanks() []int { return t.dead.sorted() }

// CommittedVersions lists the globally committed versions — those every
// rank holds durable — in ascending order.
func (t *Tracker) CommittedVersions() []int64 { return t.holds.complete(t.ranks) }

// LatestConsistent returns the newest globally committed version — the
// version a cluster restart should restore from. ok is false when no
// version has committed on every rank yet.
func (t *Tracker) LatestConsistent() (version int64, ok bool) { return t.holds.newest(t.ranks) }

// CommitLag measures how far the cluster's committed frontier trails the
// fastest rank: the highest version any rank reported durable minus the
// latest consistent version (counting from -1 when nothing has
// committed). 0 means every durable version is globally committed.
func (t *Tracker) CommitLag() int64 {
	latest, ok := t.LatestConsistent()
	if !ok {
		latest = -1
	}
	if !t.any {
		return 0
	}
	return t.high - latest
}

// CommitWaits returns, per globally committed version, the group-commit
// wait: the interval from the first rank's durable report of that
// version to its global commit. Empty unless SetNow was provided.
// Committed versions stay in the map even if a later rank death retracts
// claims — the wait is a historical measurement, not current state.
func (t *Tracker) CommitWaits() map[int64]time.Duration {
	out := make(map[int64]time.Duration, len(t.committedAt))
	for v, at := range t.committedAt {
		out[v] = at - t.firstAt[v]
	}
	return out
}

// MeanCommitWait averages the group-commit waits over committed
// versions; zero when nothing has committed (or SetNow was never set).
func (t *Tracker) MeanCommitWait() time.Duration {
	if len(t.committedAt) == 0 {
		return 0
	}
	var sum time.Duration
	for v, at := range t.committedAt {
		sum += at - t.firstAt[v]
	}
	return sum / time.Duration(len(t.committedAt))
}

// RegisterProbes attaches the tracker's gauges to a sampler: the latest
// consistent version (-1 before the first global commit), the commit
// lag, the mean group-commit wait, and the rank-death count. Call
// before Sampler.Start; prefix defaults to "coord".
func (t *Tracker) RegisterProbes(s *metrics.Sampler, prefix string) {
	if prefix == "" {
		prefix = "coord"
	}
	s.Register(prefix+".committed_version", func() float64 {
		v, ok := t.LatestConsistent()
		if !ok {
			return -1
		}
		return float64(v)
	})
	s.Register(prefix+".commit_lag", func() float64 {
		return float64(t.CommitLag())
	})
	s.Register(prefix+".mean_commit_wait_us", func() float64 {
		return float64(t.MeanCommitWait()) / float64(time.Microsecond)
	})
	s.Register(prefix+".rank_deaths", func() float64 {
		return float64(t.RankDeaths())
	})
}
