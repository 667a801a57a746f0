package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// LifecycleKind enumerates the observable milestones in a checkpoint
// version's life, from creation through durability (or loss) to restore.
type LifecycleKind int

const (
	LCreated        LifecycleKind = iota // accepted into the GPU cache
	LCached                              // write complete in the GPU cache
	LFlushEnqueued                       // queued for the async flush chain
	LD2HStart                            // GPU→host copy began
	LD2HEnd                              // GPU→host copy landed
	LHopStart                            // host→deep-tier hop began (Tier names the destination)
	LHopEnd                              // host→deep-tier hop landed
	LPartnerCopy                         // replica mirrored to the partner node's SSD
	LDurable                             // fate decided: durable on a non-volatile tier
	LGroupCommit                         // every rank holds the version durable
	LDegraded                            // a tier was taken out of rotation for this attempt
	LRetried                             // an I/O attempt failed and was retried
	LEvicted                             // a cached replica was evicted to make room
	LStaged                              // staged SSD→host for a future promote
	LPrefetched                          // promoted into the GPU cache ahead of use
	LRestored                            // served back to the application
	LDiscarded                           // fate decided: superseded, never needed durably
	LLost                                // fate decided: lost to faults or death
	LKilled                              // the owning rank died
	LHealed                              // a degraded tier passed its probe and rejoined rotation
	LDrainStart                          // preemption notice: deadline-bounded drain began
	LDrainEnd                            // drain finished (Detail carries the manifest tally)
	LDrainAbandoned                      // drain gave up on this version (fail-open to ErrLost)
	LMigrateStart                        // live migration to a successor node began
	LMigrateEnd                          // migration cutover validated (or failed definitively)
	LMigrated                            // this version's durable replica landed on the successor
	LStalled                             // an I/O leg exceeded its adaptive deadline without failing (gray stall)
	LHedged                              // a hedge leg was launched against the next-deeper replica
	LSLOFired                            // an SLO burn-rate alert fired (Detail carries burn/budget/attribution)
	LSLOResolved                         // a firing SLO alert dropped back below its burn-rate threshold
)

// String names the kind as rendered in ledger dumps.
func (k LifecycleKind) String() string {
	switch k {
	case LCreated:
		return "created"
	case LCached:
		return "cached"
	case LFlushEnqueued:
		return "flush-enqueued"
	case LD2HStart:
		return "d2h-start"
	case LD2HEnd:
		return "d2h-end"
	case LHopStart:
		return "hop-start"
	case LHopEnd:
		return "hop-end"
	case LPartnerCopy:
		return "partner-copy"
	case LDurable:
		return "durable"
	case LGroupCommit:
		return "group-commit"
	case LDegraded:
		return "degraded"
	case LRetried:
		return "retried"
	case LEvicted:
		return "evicted"
	case LStaged:
		return "staged"
	case LPrefetched:
		return "prefetched"
	case LRestored:
		return "restored"
	case LDiscarded:
		return "discarded"
	case LLost:
		return "lost"
	case LKilled:
		return "killed"
	case LHealed:
		return "healed"
	case LDrainStart:
		return "drain-start"
	case LDrainEnd:
		return "drain-end"
	case LDrainAbandoned:
		return "drain-abandoned"
	case LMigrateStart:
		return "migrate-start"
	case LMigrateEnd:
		return "migrate-end"
	case LMigrated:
		return "migrated"
	case LStalled:
		return "stalled"
	case LHedged:
		return "hedged"
	case LSLOFired:
		return "slo-fired"
	case LSLOResolved:
		return "slo-resolved"
	}
	return fmt.Sprintf("LifecycleKind(%d)", int(k))
}

// LifecycleEvent is one ledger entry: something happened to (Rank,
// Version) at simulated time At. Tier carries the tier or hop label
// when relevant; Detail is free-form context (error text, byte counts).
type LifecycleEvent struct {
	Rank    int
	Version int64
	Kind    LifecycleKind
	Tier    string
	Detail  string
	At      time.Duration
}

// DefaultFlightCap bounds each rank's ledger ring. At ~20 events per
// checkpoint version this retains the last few hundred versions.
const DefaultFlightCap = 8192

// FlightRecorder keeps a bounded per-rank ring of lifecycle events — a
// flight recorder for the checkpoint pipeline. When a rank's ring
// fills, the oldest entries are overwritten and counted as dropped.
// Safe for concurrent use: one mutex guards every ring, and it is never
// contended, because the virtual clock runs one task at a time.
type FlightRecorder struct {
	now        func() time.Duration
	capPerRank int

	mu    sync.Mutex
	ranks map[int]*rankRing
}

type rankRing struct {
	events  []LifecycleEvent
	next    int
	dropped int64
}

// NewFlightRecorder builds a recorder timestamping from now, retaining
// at most capPerRank events per rank (capPerRank < 1 panics).
func NewFlightRecorder(now func() time.Duration, capPerRank int) *FlightRecorder {
	if now == nil {
		panic("trace: nil clock function")
	}
	if capPerRank < 1 {
		panic("trace: flight recorder capacity must be >= 1")
	}
	return &FlightRecorder{now: now, capPerRank: capPerRank, ranks: map[int]*rankRing{}}
}

// Record appends one lifecycle event for (rank, version), stamped at
// the recorder clock's current instant. Nil-safe.
func (f *FlightRecorder) Record(rank int, version int64, kind LifecycleKind, tier, detail string) {
	if f == nil {
		return
	}
	f.RecordAt(rank, version, kind, tier, detail, f.now())
}

// RecordAt appends one lifecycle event with an explicit timestamp —
// for events whose semantic instant predates the recording call, like
// SLO alert transitions evaluated when a later-timestamped observation
// folds the batch. Nil-safe.
func (f *FlightRecorder) RecordAt(rank int, version int64, kind LifecycleKind, tier, detail string, at time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.ranks[rank]
	if r == nil {
		r = &rankRing{}
		f.ranks[rank] = r
	}
	ev := LifecycleEvent{Rank: rank, Version: version, Kind: kind, Tier: tier, Detail: detail, At: at}
	if len(r.events) < f.capPerRank {
		r.events = append(r.events, ev)
	} else {
		r.events[r.next] = ev
		r.next = (r.next + 1) % f.capPerRank
		r.dropped++
	}
}

// Ledger returns rank's retained events in a deterministic order:
// primarily by simulated time, then by (version, kind, tier, detail);
// entries equal in every field are indistinguishable and keep storage
// order. The tie-breaks make the order a function of the events, not of
// the order same-instant tasks recorded them in. Nil-safe.
func (f *FlightRecorder) Ledger(rank int) []LifecycleEvent {
	if f == nil {
		return nil
	}
	var out []LifecycleEvent
	f.mu.Lock()
	if r := f.ranks[rank]; r != nil {
		out = append(out, r.events...)
	}
	f.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Tier != b.Tier {
			return a.Tier < b.Tier
		}
		return a.Detail < b.Detail
	})
	return out
}

// VersionLedger returns rank's retained events for one version, in
// Ledger order. Nil-safe.
func (f *FlightRecorder) VersionLedger(rank int, version int64) []LifecycleEvent {
	var out []LifecycleEvent
	for _, ev := range f.Ledger(rank) {
		if ev.Version == version {
			out = append(out, ev)
		}
	}
	return out
}

// Ranks lists the ranks with at least one retained event, ascending.
// Nil-safe.
func (f *FlightRecorder) Ranks() []int {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]int, 0, len(f.ranks))
	for r := range f.ranks {
		out = append(out, r)
	}
	f.mu.Unlock()
	sort.Ints(out)
	return out
}

// Dropped reports how many of rank's events were evicted by the ring
// bound. Nil-safe.
func (f *FlightRecorder) Dropped(rank int) int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if r := f.ranks[rank]; r != nil {
		return r.dropped
	}
	return 0
}

// TotalDropped sums Dropped across ranks. Nil-safe.
func (f *FlightRecorder) TotalDropped() int64 {
	var total int64
	for _, r := range f.Ranks() {
		total += f.Dropped(r)
	}
	return total
}

// Flight returns the tracer's flight recorder, creating it at the
// default capacity on first use. Nil-safe (returns nil on nil tracer,
// and a nil *FlightRecorder is itself a no-op sink).
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.flight == nil {
		t.flight = NewFlightRecorder(t.now, DefaultFlightCap)
	}
	return t.flight
}

// EnableFlightRecorder (re)creates the tracer's flight recorder with an
// explicit per-rank capacity, replacing any prior recorder. Nil-safe.
func (t *Tracer) EnableFlightRecorder(capPerRank int) *FlightRecorder {
	if t == nil {
		return nil
	}
	f := NewFlightRecorder(t.now, capPerRank)
	t.mu.Lock()
	t.flight = f
	t.mu.Unlock()
	return f
}

// Lifecycle records one ledger entry on the tracer's flight recorder
// (created on demand). Nil-safe.
func (t *Tracer) Lifecycle(rank int, version int64, kind LifecycleKind, tier, detail string) {
	if t == nil {
		return
	}
	t.Flight().Record(rank, version, kind, tier, detail)
}
