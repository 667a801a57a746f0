// Package faultinject is a deterministic, seedable fault-injection layer
// for the checkpoint pipeline. It models the failure taxonomy the
// multi-level checkpointing literature (VELOC lineage, §2 of the paper)
// assumes the runtime survives: transient and persistent I/O failures on
// the SSD and PFS tiers, silent corruption of durable checkpoint files,
// degraded interconnect bandwidth ("drop the PCIe link to 10% for 2s"),
// and host pinned-memory allocation pressure.
//
// An Injector owns a set of Rules and answers one question — Decide: given
// an operation about to happen at a Site, should it fail, be corrupted,
// or be slowed, and by how much? Rules fire by schedule ("the Nth SSD
// write"), by simulated-time window ("PFS reads after T"), by seeded
// probability, or unconditionally; every random draw comes from one
// seeded source, so a schedule replays identically under the virtual
// clock.
//
// The injector never reaches into the runtime. The hook points are narrow
// injectable interfaces owned by the packages being faulted —
// fabric.Link.SetInterceptor for link transfers, device.GPU copy engines
// (which ride the links) and SetAllocInterceptor for allocation pressure,
// and ckptstore.Store.SetFaultHook for durable read/write paths — and the
// Score layer adapts Decide to each of them.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"score/internal/simclock"
)

// Site enumerates the operations a rule can target.
type Site int

const (
	// SitePCIe is the GPU↔host copy engine (D2H and H2D transfers).
	SitePCIe Site = iota
	// SiteNVMe is the node-local SSD link, both directions.
	SiteNVMe
	// SitePFS is the parallel file system link, both directions.
	SitePFS
	// SiteStoreWrite is a durable write (Put) to the SSD checkpoint store.
	SiteStoreWrite
	// SiteStoreRead is a durable read (Get) from the SSD checkpoint store.
	SiteStoreRead
	// SitePFSStoreWrite is a durable write to the PFS checkpoint store.
	SitePFSStoreWrite
	// SitePFSStoreRead is a durable read from the PFS checkpoint store.
	SitePFSStoreRead
	// SiteHostAlloc is pinned host memory allocation/registration
	// (pressure slows it; it never fails outright).
	SiteHostAlloc
	// SitePartner is the inter-node fabric leg of partner-copy
	// replication (transfers crossing the rank's own node NIC).
	SitePartner
	// SitePartnerStoreWrite is a durable write to the partner-copy store.
	SitePartnerStoreWrite
	// SitePartnerStoreRead is a durable read from the partner-copy store.
	SitePartnerStoreRead
	// SiteMigrate is the per-version copy of a live tier migration (the
	// inter-node leg moving a rank's durable tier to its successor).
	SiteMigrate

	numSites
)

// String names the site.
func (s Site) String() string {
	switch s {
	case SitePCIe:
		return "pcie"
	case SiteNVMe:
		return "nvme"
	case SitePFS:
		return "pfs"
	case SiteStoreWrite:
		return "store-write"
	case SiteStoreRead:
		return "store-read"
	case SitePFSStoreWrite:
		return "pfsstore-write"
	case SitePFSStoreRead:
		return "pfsstore-read"
	case SiteHostAlloc:
		return "host-alloc"
	case SitePartner:
		return "partner"
	case SitePartnerStoreWrite:
		return "partnerstore-write"
	case SitePartnerStoreRead:
		return "partnerstore-read"
	case SiteMigrate:
		return "migrate"
	}
	return fmt.Sprintf("Site(%d)", int(s))
}

// Kind is the effect a rule injects.
type Kind int

const (
	// KindFail makes the operation return an error.
	KindFail Kind = iota
	// KindCorrupt flips bytes in the data the operation carries
	// (meaningful for durable store reads; the CRC layer detects it).
	KindCorrupt
	// KindSlow degrades the operation: extra latency and/or a bandwidth
	// scale factor.
	KindSlow
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFail:
		return "fail"
	case KindCorrupt:
		return "corrupt"
	case KindSlow:
		return "slow"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected is the root of every injected failure; match with
// errors.Is to distinguish injected faults from real ones in tests.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule describes one fault. Build rules with the constructor helpers
// (FailNth, FailProb, FailAfter, CorruptID, Slow, ...) — they keep the
// trigger fields consistent.
type Rule struct {
	// Site selects the operations this rule watches.
	Site Site
	// Kind is the injected effect.
	Kind Kind

	// Trigger: exactly one of Nth/Prob is normally set. Nth fires on the
	// Nth matching operation (1-based). Prob fires each matching
	// operation with the given probability. If both are zero the rule
	// fires on every matching operation (use with a window or Count).
	Nth  int64
	Prob float64

	// After/Until bound the rule to a simulated-time window. Zero After
	// means "from the start"; zero Until means "forever".
	After, Until time.Duration

	// Count caps the number of firings (0 = unlimited).
	Count int64

	// IDSet restricts the rule to operations on checkpoint ID (durable
	// store ops carry ids; link transfers do not and only match id-less
	// rules).
	IDSet bool
	ID    int64

	// Slow parameters: Scale multiplies the effective bandwidth
	// ((0,1]; 0.1 = 10% of nominal), Delay adds fixed latency.
	Scale float64
	Delay time.Duration

	// Gray-fault shapes (KindSlow refinements). Jitter adds a random
	// extra latency drawn uniformly from [0, Jitter) per firing — the
	// draw comes from the injector's seeded source, so schedules replay
	// identically under the virtual clock. Stall pins every matching
	// operation inside the rule's [After, Until) window until the window
	// closes: the operation's delay is extended to Until-now, modeling a
	// device or link that stops answering for a bounded interval without
	// ever returning an error. Stall requires Until > 0.
	Jitter time.Duration
	Stall  bool
}

// FailNth fails the Nth operation at site (1-based).
func FailNth(site Site, n int64) Rule { return Rule{Site: site, Kind: KindFail, Nth: n} }

// FailProb fails each operation at site with probability p.
func FailProb(site Site, p float64) Rule { return Rule{Site: site, Kind: KindFail, Prob: p} }

// FailAfter is a persistent outage: every operation at site fails from
// simulated time t on.
func FailAfter(site Site, t time.Duration) Rule {
	return Rule{Site: site, Kind: KindFail, After: t}
}

// FailWindow fails every operation at site within [after, until).
func FailWindow(site Site, after, until time.Duration) Rule {
	return Rule{Site: site, Kind: KindFail, After: after, Until: until}
}

// FailID fails every operation at site touching checkpoint id.
func FailID(site Site, id int64) Rule {
	return Rule{Site: site, Kind: KindFail, IDSet: true, ID: id}
}

// CorruptNth corrupts the Nth operation at site (1-based).
func CorruptNth(site Site, n int64) Rule { return Rule{Site: site, Kind: KindCorrupt, Nth: n} }

// CorruptProb corrupts each operation at site with probability p.
func CorruptProb(site Site, p float64) Rule {
	return Rule{Site: site, Kind: KindCorrupt, Prob: p}
}

// CorruptID corrupts every operation at site touching checkpoint id.
func CorruptID(site Site, id int64) Rule {
	return Rule{Site: site, Kind: KindCorrupt, IDSet: true, ID: id}
}

// Slow degrades site to scale× bandwidth within [after, until) — e.g.
// Slow(SitePCIe, 0.1, 2*time.Second, 4*time.Second) drops the PCIe link
// to 10% for two seconds.
func Slow(site Site, scale float64, after, until time.Duration) Rule {
	return Rule{Site: site, Kind: KindSlow, Scale: scale, After: after, Until: until}
}

// Delay adds fixed latency to every operation at site within
// [after, until) — e.g. host allocation pressure.
func Delay(site Site, d time.Duration, after, until time.Duration) Rule {
	return Rule{Site: site, Kind: KindSlow, Delay: d, After: after, Until: until}
}

// Jitter adds a seeded-random extra latency in [0, max) to every
// operation at site within [after, until) — a link that still moves
// bytes at nominal bandwidth but with erratic per-operation latency.
// Never an error: the gray half of the failure taxonomy.
func Jitter(site Site, max time.Duration, after, until time.Duration) Rule {
	return Rule{Site: site, Kind: KindSlow, Jitter: max, After: after, Until: until}
}

// StallWindow freezes site for [after, until): any operation arriving
// inside the window is delayed until the window closes, then proceeds
// normally. This models a bounded gray stall — a copy engine or store
// that stops answering for a while without failing — so an operation
// arriving at t in [after, until) is charged until-t of extra latency.
func StallWindow(site Site, after, until time.Duration) Rule {
	return Rule{Site: site, Kind: KindSlow, Stall: true, After: after, Until: until}
}

// KillSpec schedules the abrupt death of one rank — or a whole node —
// at a virtual time. Unlike Rules, which fault individual operations, a
// kill takes the process down: its GPU and host tiers vanish, in-flight
// flushes resolve as lost, and every later call on the killed client
// fails. A node kill (GPU == -1) additionally means the node's local
// SSD contents do not survive into a restart; the scenario layer models
// that by discarding the node's store directories.
type KillSpec struct {
	// Node is the node index the kill targets.
	Node int
	// GPU selects one rank on the node; -1 kills every rank on it.
	GPU int
	// At is the virtual time the kill fires.
	At time.Duration
}

// KillRank schedules rank (node, gpu) to die at virtual time at.
func KillRank(node, gpu int, at time.Duration) KillSpec {
	return KillSpec{Node: node, GPU: gpu, At: at}
}

// KillNode schedules every rank on node to die at virtual time at — a
// whole-node failure: GPUs, host memory, and the node-local SSD are all
// lost.
func KillNode(node int, at time.Duration) KillSpec {
	return KillSpec{Node: node, GPU: -1, At: at}
}

// PreemptSpec schedules a preemption notice for one rank — or a whole
// node — at a virtual time: the scheduler announces the reclaim and
// grants a grace window. The runtime layer arms two timers off it — a
// deadline-bounded drain at At, and the actual kill at At+Grace — so a
// drain that misses its deadline is followed by the reclaim anyway,
// exactly the contract the drain's fail-open design exists for.
type PreemptSpec struct {
	// Node is the node index the notice targets.
	Node int
	// GPU selects one rank on the node; -1 preempts every rank on it.
	GPU int
	// At is the virtual time the notice arrives.
	At time.Duration
	// Grace is the window between the notice and the reclaim.
	Grace time.Duration
}

// PreemptRank schedules a preemption notice for rank (node, gpu) at
// virtual time at with the given grace window.
func PreemptRank(node, gpu int, at, grace time.Duration) PreemptSpec {
	return PreemptSpec{Node: node, GPU: gpu, At: at, Grace: grace}
}

// PreemptNode schedules a preemption notice for every rank on node.
func PreemptNode(node int, at, grace time.Duration) PreemptSpec {
	return PreemptSpec{Node: node, GPU: -1, At: at, Grace: grace}
}

// Decision is the injector's verdict for one operation. The zero value
// means "proceed untouched".
type Decision struct {
	// Err, when non-nil, fails the operation (wraps ErrInjected).
	Err error
	// Corrupt asks the hook to flip bytes in the operation's data.
	Corrupt bool
	// Scale multiplies effective bandwidth ((0,1]; 0 = unscaled).
	Scale float64
	// Delay is extra latency to charge before the outcome.
	Delay time.Duration
}

// rule wraps a Rule with its firing state.
type rule struct {
	Rule
	seen  int64 // matching operations observed
	fired int64 // times this rule fired
}

// Injector evaluates rules deterministically. Safe for concurrent use;
// determinism additionally requires a deterministic operation order,
// which the virtual clock provides.
type Injector struct {
	clk  simclock.Clock
	seed int64

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*rule
	kills    []KillSpec
	preempts []PreemptSpec
	ops      [numSites]int64 // operations observed per site
	hits     [numSites]int64 // faults injected per site
}

// New creates an injector on clk whose probabilistic draws derive from
// seed. Install rules with Add.
func New(clk simclock.Clock, seed int64, rules ...Rule) *Injector {
	in := &Injector{
		clk:  clk,
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
	}
	in.Add(rules...)
	return in
}

// Seed returns the seed the injector was created with.
func (in *Injector) Seed() int64 { return in.seed }

// Add installs rules.
func (in *Injector) Add(rules ...Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range rules {
		rc := r
		in.rules = append(in.rules, &rule{Rule: rc})
	}
}

// AddKills installs rank/node kill schedules. The runtime layer reads
// them with KillAt when a client attaches the injector and arms a timer
// on the virtual clock.
func (in *Injector) AddKills(kills ...KillSpec) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.kills = append(in.kills, kills...)
}

// KillAt reports the earliest scheduled death of rank (node, gpu),
// considering both rank kills and whole-node kills.
func (in *Injector) KillAt(node, gpu int) (at time.Duration, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, k := range in.kills {
		if k.Node != node || (k.GPU != gpu && k.GPU != -1) {
			continue
		}
		if !ok || k.At < at {
			at, ok = k.At, true
		}
	}
	return at, ok
}

// AddPreempts installs preemption-notice schedules. The runtime layer
// reads them with PreemptAt when a client attaches the injector and arms
// the drain and reclaim timers on the virtual clock.
func (in *Injector) AddPreempts(preempts ...PreemptSpec) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.preempts = append(in.preempts, preempts...)
}

// PreemptAt reports the earliest scheduled preemption notice for rank
// (node, gpu), considering both rank and whole-node notices.
func (in *Injector) PreemptAt(node, gpu int) (at, grace time.Duration, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, p := range in.preempts {
		if p.Node != node || (p.GPU != gpu && p.GPU != -1) {
			continue
		}
		if !ok || p.At < at {
			at, grace, ok = p.At, p.Grace, true
		}
	}
	return at, grace, ok
}

// Decide evaluates one operation at site on checkpoint id (pass a
// negative id for operations that do not carry one) of the given size.
// It advances every matching rule's schedule, so call it exactly once
// per operation.
func (in *Injector) Decide(site Site, id int64, size int64) Decision {
	_ = size
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.clk.Now()
	in.ops[site]++
	var d Decision
	injected := false
	for _, r := range in.rules {
		if r.Site != site {
			continue
		}
		if r.IDSet && (id < 0 || id != r.ID) {
			continue
		}
		r.seen++
		if now < r.After || (r.Until > 0 && now >= r.Until) {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		switch {
		case r.Nth > 0:
			if r.seen != r.Nth {
				continue
			}
		case r.Prob > 0:
			if in.rng.Float64() >= r.Prob {
				continue
			}
		}
		r.fired++
		injected = true
		switch r.Kind {
		case KindFail:
			if d.Err == nil {
				d.Err = fmt.Errorf("%w: %s %s", ErrInjected, r.Kind, site)
			}
		case KindCorrupt:
			d.Corrupt = true
		case KindSlow:
			if r.Scale > 0 && r.Scale < 1 {
				if d.Scale == 0 {
					d.Scale = r.Scale
				} else {
					d.Scale *= r.Scale
				}
			}
			d.Delay += r.Delay
			if r.Jitter > 0 {
				d.Delay += time.Duration(in.rng.Int63n(int64(r.Jitter)))
			}
			if r.Stall && r.Until > now {
				// Pin the operation until the stall window closes.
				d.Delay += r.Until - now
			}
		}
	}
	if injected {
		in.hits[site]++
	}
	return d
}

// Injected returns the total number of operations that had at least one
// fault injected.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var t int64
	for _, h := range in.hits {
		t += h
	}
	return t
}

// InjectedAt returns the number of faulted operations at site.
func (in *Injector) InjectedAt(site Site) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Ops returns the number of operations observed at site.
func (in *Injector) Ops(site Site) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops[site]
}
