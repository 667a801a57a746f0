package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
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

var kindNames = [...]string{
	LCreated: "created", LCached: "cached", LFlushEnqueued: "flush-enqueued",
	LD2HStart: "d2h-start", LD2HEnd: "d2h-end", LHopStart: "hop-start",
	LHopEnd: "hop-end", LPartnerCopy: "partner-copy", LDurable: "durable",
	LGroupCommit: "group-commit", LDegraded: "degraded", LRetried: "retried",
	LEvicted: "evicted", LStaged: "staged", LPrefetched: "prefetched",
	LRestored: "restored", LDiscarded: "discarded", LLost: "lost",
	LKilled: "killed", LHealed: "healed", LDrainStart: "drain-start",
	LDrainEnd: "drain-end", LDrainAbandoned: "drain-abandoned",
	LMigrateStart: "migrate-start", LMigrateEnd: "migrate-end",
	LMigrated: "migrated", LStalled: "stalled", LHedged: "hedged",
	LSLOFired: "slo-fired", LSLOResolved: "slo-resolved",
}

// String names the kind as rendered in ledger dumps.
func (k LifecycleKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
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

// ledgerEntry is how a rank's ring stores a LifecycleEvent: 40 bytes,
// the rank implied by the ring and the tier interned in
// FlightRecorder.tiers.
type ledgerEntry struct {
	version int64
	at      time.Duration
	detail  string
	kind    int32
	tier    uint32
}

// DefaultFlightCap bounds each rank's ledger ring: two storage blocks.
// At ~20 events per checkpoint version this retains the last few
// hundred versions.
const DefaultFlightCap = 2 * blockLen

// FlightRecorder keeps a bounded per-rank ring of lifecycle events — a
// flight recorder for the checkpoint pipeline. When a rank's ring
// fills, the oldest entries are overwritten and counted as dropped.
// The ranks recording into it are tasks of one clock, which runs one at a
// time, so it takes no lock; read it from those tasks or after the run.
type FlightRecorder struct {
	now        func() time.Duration
	capPerRank int

	ranks map[int]*blockRing[ledgerEntry]
	tiers []string // tier labels by id: a handful, so found by scanning
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
	return &FlightRecorder{now: now, capPerRank: capPerRank, ranks: map[int]*blockRing[ledgerEntry]{}}
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
	r := f.ranks[rank]
	if r == nil {
		r = &blockRing[ledgerEntry]{limit: f.capPerRank}
		f.ranks[rank] = r
	}
	id := slices.Index(f.tiers, tier)
	if id < 0 {
		id, f.tiers = len(f.tiers), append(f.tiers, tier)
	}
	r.push(ledgerEntry{version: version, at: at, detail: detail, kind: int32(kind), tier: uint32(id)})
}

// Ledger returns rank's retained events in a deterministic order:
// primarily by simulated time, then by (version, kind, tier, detail);
// entries equal in every field are indistinguishable. The tie-breaks
// make the order a function of the events, not of the order same-instant
// tasks recorded them in. Nil-safe.
func (f *FlightRecorder) Ledger(rank int) []LifecycleEvent {
	if f == nil {
		return nil
	}
	var out []LifecycleEvent
	if r := f.ranks[rank]; r != nil {
		out = make([]LifecycleEvent, r.n)
		for i := range out {
			e := r.nth(i)
			out[i] = LifecycleEvent{Rank: rank, Version: e.version, Kind: LifecycleKind(e.kind), Tier: f.tiers[e.tier], Detail: e.detail, At: e.at}
		}
	}
	slices.SortFunc(out, func(a, b LifecycleEvent) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Version, b.Version), cmp.Compare(a.Kind, b.Kind),
			strings.Compare(a.Tier, b.Tier), strings.Compare(a.Detail, b.Detail))
	})
	return out
}

// Ranks lists the ranks with at least one retained event, ascending.
// Nil-safe.
func (f *FlightRecorder) Ranks() []int {
	if f == nil {
		return nil
	}
	out := make([]int, 0, len(f.ranks))
	for r := range f.ranks {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// Dropped reports how many of rank's events were evicted by the ring
// bound. Nil-safe.
func (f *FlightRecorder) Dropped(rank int) int64 {
	if f == nil {
		return 0
	}
	if r := f.ranks[rank]; r != nil {
		return r.dropped
	}
	return 0
}

// TotalDropped sums Dropped across ranks. Nil-safe.
func (f *FlightRecorder) TotalDropped() int64 {
	if f == nil {
		return 0
	}
	var total int64
	for _, r := range f.ranks {
		total += r.dropped
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
	if t.flight == nil {
		t.flight = NewFlightRecorder(t.now, DefaultFlightCap)
	}
	return t.flight
}

// Lifecycle records one ledger entry on the tracer's flight recorder
// (created on demand). Nil-safe.
func (t *Tracer) Lifecycle(rank int, version int64, kind LifecycleKind, tier, detail string) {
	t.Flight().Record(rank, version, kind, tier, detail)
}
