package coord

import (
	"errors"
	"slices"
	"sort"
)

// Elastic restart: re-sharding checkpoint state from N ranks to M. The
// old job's state exists as N shards — one per old rank, each a slice of
// every checkpoint version that rank wrote. A version is restorable by
// the new membership only if all N of its shards survived; the restart
// recipe scans the surviving stores (ground truth, not the old
// tracker's in-memory view), reports what each shard actually holds, and
// Reshard recomputes the group-commit frontier for the new membership.
//
// The recipe is interruptible by design: a node can die mid-scan
// (RetractShard drops everything it claimed) and a partner-copy recovery
// can re-establish a retracted shard's claims from the replica. The
// frontier only ever reflects versions every shard demonstrably holds —
// it never includes a version a surviving shard lacks.

// Reshard accumulates shard-durability reports during an elastic restart
// and maps the old membership's N shards onto the new membership's M
// ranks. Like Tracker it takes no lock: the tasks of one clock use it,
// one at a time, or its owner does between runs.
type Reshard struct {
	from, to  int
	epoch     int
	holds     holdSet // version -> old shards holding it
	retracted members // shards whose storage was lost mid-recipe
}

// NewReshard starts an elastic-restart recipe re-sharding a job from
// `from` old ranks onto `to` new ranks, at the new membership epoch
// (which must be past the old incarnation's).
func NewReshard(from, to, epoch int) (*Reshard, error) {
	if from < 1 || to < 1 {
		return nil, errors.New("coord: reshard needs at least one rank on each side")
	}
	if epoch < 1 {
		return nil, errors.New("coord: a reshard starts a new membership epoch (>= 1)")
	}
	return &Reshard{
		from:      from,
		to:        to,
		epoch:     epoch,
		holds:     holdSet{},
		retracted: members{},
	}, nil
}

// From returns the old membership's rank count; To the new one's.
func (r *Reshard) From() int { return r.from }

// To returns the new membership's rank count.
func (r *Reshard) To() int { return r.to }

// Epoch returns the new membership epoch the reshard establishes.
func (r *Reshard) Epoch() int { return r.epoch }

// MarkShardDurable records that old shard `shard` holds `version` in a
// surviving durable store. Out-of-range shards and negative versions are
// ignored (reports come from per-store scan loops). Re-marking a
// retracted shard is allowed — that is exactly what a partner-copy
// recovery does — and clears its retraction.
func (r *Reshard) MarkShardDurable(shard int, version int64) {
	if version < 0 || shard < 0 || shard >= r.from {
		return
	}
	delete(r.retracted, shard)
	r.holds.mark(shard, version)
}

// RetractShard drops every claim old shard `shard` has made — its
// storage died mid-recipe (node loss during the restart window). The
// frontier recomputes without it; versions only it completed fall out of
// the committed set until a partner-copy recovery re-marks them.
func (r *Reshard) RetractShard(shard int) {
	if shard < 0 || shard >= r.from {
		return
	}
	r.retracted[shard] = struct{}{}
	for v := range r.holds {
		r.holds.drop(shard, v)
	}
}

// RetractedShards lists the shards currently retracted (lost and not yet
// recovered), ascending.
func (r *Reshard) RetractedShards() []int { return r.retracted.sorted() }

// Committed lists the versions every old shard holds — the versions the
// new membership can restore completely — in ascending order. A version
// missing any shard (including a retracted one) is not restorable: each
// shard is a distinct slice of the job's state, so there is no quorum
// shortcut.
func (r *Reshard) Committed() []int64 { return r.holds.complete(r.from) }

// Frontier returns the newest completely-held version — what the new
// membership restores from. ok is false when no version is complete.
func (r *Reshard) Frontier() (version int64, ok bool) { return r.holds.newest(r.from) }

// Owner maps an old shard to the new rank that adopts it: round-robin
// shard % to, so N→M re-sharding balances within one shard everywhere.
// Out-of-range shards return -1.
func (r *Reshard) Owner(shard int) int {
	if shard < 0 || shard >= r.from {
		return -1
	}
	return shard % r.to
}

// ShardsOf lists the old shards new rank `rank` adopts, ascending. Empty
// when rank is out of range or (M > N) the rank drew no shard.
func (r *Reshard) ShardsOf(rank int) []int {
	if rank < 0 || rank >= r.to {
		return nil
	}
	var out []int
	for s := rank; s < r.from; s += r.to {
		out = append(out, s)
	}
	return out
}

// Tracker builds the new membership's group-commit tracker at the
// reshard's epoch, seeded so the adopted state counts as already
// durable: new rank m holds version v iff every shard it adopted holds v
// (a rank that drew no shard — the M > N case — is seeded with the
// completely-held versions, since it carries no slice whose absence
// could block a restore). By construction the seeded tracker's
// LatestConsistent equals Frontier.
func (r *Reshard) Tracker() (*Tracker, error) {
	t, err := NewAtEpoch(r.to, r.epoch)
	if err != nil {
		return nil, err
	}
	versions := make([]int64, 0, len(r.holds))
	for v := range r.holds {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	for _, v := range versions {
		set := r.holds[v]
		for m := 0; m < r.to; m++ {
			// A rank that drew no shard holds what every shard holds.
			holds := len(set) == r.from
			if owned := r.ShardsOf(m); len(owned) > 0 {
				holds = !slices.ContainsFunc(owned, func(s int) bool {
					_, ok := set[s]
					return !ok
				})
			}
			if holds {
				t.MarkDurable(m, v)
			}
		}
	}
	return t, nil
}
