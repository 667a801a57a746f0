// Package cachebuf implements the contiguous cache buffer of the paper's
// §4.1.4–4.1.6 and the gap-aware, score-based, sliding-window eviction
// policy of §4.2 (Algorithm 1).
//
// A Buffer manages one pre-allocated contiguous region on one cache tier
// (GPU HBM or pinned host memory). Resident checkpoints and the gaps
// between them form an ordered fragment list. When a new checkpoint (or a
// prefetch) needs space and no single gap is large enough, the policy
// slides a variable-size window over the fragment list to find the set of
// consecutive fragments whose eviction blocks future restores the least:
//
//   - p_score: the estimated total time until every fragment in the window
//     becomes evictable (0 for gaps and already-evictable checkpoints, +Inf
//     for pinned fragments — replicas being written/read or prefetched but
//     not yet consumed, which are never evicted, §2 condition 4);
//   - s_score: the total prefetch distance of the window's checkpoints
//     (how far from the head of the restore-order queue they are; gaps
//     count as infinitely far).
//
// The window with minimal p_score wins; ties break toward maximal s_score
// (evict what will be restored last). Scores update incrementally as the
// window slides, keeping the scan O(N).
//
// Geometry invariants maintained at every step:
//  1. fragments are sorted by offset and tile [0, capacity) exactly;
//  2. no two gaps are adjacent (gaps coalesce eagerly);
//  3. every checkpoint id appears at most once.
package cachebuf

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"score/internal/simclock"
)

// ID identifies a checkpoint (unique per buffer). Negative values are
// reserved for gaps internally.
type ID int64

const gapID ID = -1

// GapDistance is the prefetch distance attributed to gaps: farther than
// any real hint, so windows containing gaps win s_score ties (gaps have
// "the highest eviction priority", §4.1.6).
const GapDistance = int(1) << 40

// Oracle is the pull form of the eviction inputs. A buffer built from one
// (New) polls it: every unclaimed resident once per window scan, into
// entries it owns, and every member of a window per evictability check.
// The runtime writes its entries itself (EntrySource).
type Oracle interface {
	// Evictable reports whether id may be evicted right now.
	Evictable(id ID) bool
	// TimeToEvictable estimates how long until id becomes evictable.
	// ok=false means the replica is pinned indefinitely (prefetched but
	// not yet consumed, or mid-read) and must never be evicted.
	TimeToEvictable(id ID) (d time.Duration, ok bool)
	// PrefetchDistance returns the queue positions between the head of the
	// restore-order queue and id's hint; >= GapDistance-1 without a hint.
	PrefetchDistance(id ID) int
	// Evicted notifies the runtime that id's replica left this buffer.
	Evicted(id ID)
}

// Entry is one checkpoint's eviction inputs on one cache tier. Whoever
// knows when an input changes writes it then; the buffer keeps a pointer
// per fragment and reads it in place: one load per fragment per scan, no
// lock, no lookup. Writers run outside the buffer lock, so every field is
// an atomic; they serialize among themselves (the runtime: Client.mu). The
// zero Entry reads as a checkpoint without a record — unpinned, evictable
// now, unhinted: a stale fragment, free to reclaim.
type Entry struct {
	word atomic.Uint64 // Flags | (hint position + 1) << hintShift
	wait atomic.Int64  // ns until evictable; unread when Pinned or Estimate
}

// Flags are an entry's state bits.
type Flags uint64

const (
	Pinned    Flags = 1 << iota // p_score +Inf: a transfer in flight, a prefetch unconsumed
	Kept                        // may not be erased yet
	Estimate                    // p_score is Source.Estimate(size) at the instant of the scan
	hintShift = 3
)

// NoHint is the hint position of a checkpoint with no pending hint: it
// scores GapDistance-1, farthest of all checkpoints (§4.1.6).
const NoHint = -1

// SetFlags replaces the state bits and leaves the hint alone.
func (e *Entry) SetFlags(f Flags) {
	if old := e.word.Load(); Flags(old)&(1<<hintShift-1) != f {
		e.word.Store(old&^(1<<hintShift-1) | uint64(f))
	}
}

// Flags returns the state bits.
func (e *Entry) Flags() Flags { return Flags(e.word.Load()) & (1<<hintShift - 1) }

// SetHint writes the queue position (>= 0) of the checkpoint's first
// pending hint, or NoHint. A scan scores the position minus Source.Head,
// so advancing the head rewrites no entry.
func (e *Entry) SetHint(pos int) {
	e.word.Store(e.word.Load()&(1<<hintShift-1) | uint64(pos+1)<<hintShift)
}

// Hint returns what SetHint wrote.
func (e *Entry) Hint() int { return int(e.word.Load()>>hintShift) - 1 }

// Source is what the entries of one writer share at scan time.
type Source struct {
	// Head is the position of the head of the writer's restore-order queue.
	Head atomic.Int64
	// Estimate predicts how long a flush of size bytes to the next tier
	// takes under the link load of this instant, for entries that flag it.
	Estimate func(size int64) time.Duration
}

// EntrySource hands a buffer the entries its writer maintains.
type EntrySource interface {
	// Entry returns id's entry and source. The buffer asks once, under
	// its lock (lock order: buffer, then the writer's), when it places id,
	// and holds both while the fragment lives. nil means id has no record.
	Entry(id ID) (*Entry, *Source)
	// Evicted notifies the writer that id's replica left this buffer.
	Evicted(id ID)
}

// polled adapts an Oracle to the entry feed: it owns the entries (cut from
// slabs, so a placement does not allocate) and refreshes one right before
// the buffer reads it.
type polled struct {
	Oracle
	src  Source
	slab []Entry
}

func (p *polled) Entry(ID) (*Entry, *Source) {
	if len(p.slab) == 0 {
		p.slab = make([]Entry, 64)
	}
	e := &p.slab[0]
	p.slab = p.slab[1:]
	return e, &p.src
}

// scores refreshes what a window scan reads of f's entry.
func (p *polled) scores(f *frag) {
	d, ok := p.TimeToEvictable(f.id)
	w := uint64(p.PrefetchDistance(f.id)+1) << hintShift
	if !ok {
		w |= uint64(Pinned)
	}
	if f.e.word.Load() != w {
		f.e.word.Store(w)
	}
	if f.e.wait.Load() != int64(d) {
		f.e.wait.Store(int64(d))
	}
}

// Errors returned by Reserve and TryReserve.
var (
	// ErrTooLarge: the request exceeds the buffer capacity outright.
	ErrTooLarge = errors.New("cachebuf: request larger than buffer capacity")
	// ErrClosed: the buffer was closed while waiting.
	ErrClosed = errors.New("cachebuf: buffer closed")
	// ErrWouldBlock: TryReserve found no immediately usable window.
	ErrWouldBlock = errors.New("cachebuf: reservation would block")
	// ErrDuplicate: the id is already resident.
	ErrDuplicate = errors.New("cachebuf: checkpoint already resident")
)

// frag is one fragment: a resident checkpoint or a gap.
type frag struct {
	id   ID // gapID for gaps
	off  int64
	size int64

	// The checkpoint's eviction inputs, asked for at placement; nil for gaps.
	e   *Entry
	src *Source

	// claimed marks the fragment as part of an eviction window another
	// reservation has selected and is waiting on: no other reservation
	// may place into, select, or coalesce across it.
	claimed bool
}

func (f frag) isGap() bool { return f.id == gapID }

// Stats aggregates buffer activity for the evaluation harness.
type Stats struct {
	// Evictions counts evicted checkpoints (not gaps).
	Evictions int64
	// BytesEvicted counts evicted checkpoint bytes.
	BytesEvicted int64
	// EvictionWait is total simulated time Reserve spent waiting for
	// windows to become evictable.
	EvictionWait time.Duration
	// Reservations counts successful reservations.
	Reservations int64
	// WindowScans counts scans: window selections and score summaries.
	WindowScans int64
	// FragmentsScored counts the entries those scans read: one per
	// unclaimed resident checkpoint per scan.
	FragmentsScored int64
}

// Buffer is one tier's pre-allocated contiguous cache region.
type Buffer struct {
	clk      simclock.Clock
	name     string
	capacity int64
	src      EntrySource
	poll     *polled // src when built from an Oracle, else nil
	stale    Entry   // zero: the entry of a fragment without a record
	staleSrc Source

	mu       sync.Mutex
	cond     simclock.Cond
	frags    []frag
	free     int64 // total gap bytes
	resident map[ID]struct{}
	closed   bool
	policy   Policy
	ep       EvictionPolicy
	stats    Stats
	waitObs  func(time.Duration) // per-wait eviction-stall observer

	// The scan snapshot, reused across scans, valid under mu until the
	// next one: every fragment's scores.
	view []viewFrag
}

// New creates a buffer of the given capacity that polls oracle (non-nil)
// for its checkpoints' eviction inputs.
func New(clk simclock.Clock, name string, capacity int64, oracle Oracle) *Buffer {
	if oracle == nil {
		panic("cachebuf: nil oracle")
	}
	p := &polled{Oracle: oracle}
	b := NewFromEntries(clk, name, capacity, p)
	b.poll = p
	return b
}

// NewFromEntries creates a buffer of the given capacity whose checkpoints'
// eviction inputs src keeps written; the buffer only reads them.
func NewFromEntries(clk simclock.Clock, name string, capacity int64, src EntrySource) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("cachebuf: %s: capacity must be positive, got %d", name, capacity))
	}
	b := &Buffer{
		clk:      clk,
		name:     name,
		capacity: capacity,
		src:      src,
		frags:    []frag{{id: gapID, off: 0, size: capacity}},
		free:     capacity,
		resident: make(map[ID]struct{}),
	}
	b.cond = clk.NewCond(&b.mu)
	ep, err := PolicyScore.NewPolicy()
	if err != nil {
		panic(err) // unreachable: PolicyScore is registered
	}
	b.ep = ep
	return b
}

// SetPolicy selects a built-in eviction policy (default PolicyScore).
// Unknown values are an error — there is no silent fallback. Intended
// for configuration at construction time, before concurrent use; if
// called mid-life, the new policy is re-seeded by replaying an insert
// event for every resident checkpoint in offset order.
func (b *Buffer) SetPolicy(p Policy) error {
	ep, err := p.NewPolicy()
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.policy = p
	b.installPolicyLocked(ep)
	return nil
}

// SetEvictionPolicy installs a custom EvictionPolicy implementation
// (nil panics). The Policy enum reported by PolicyName becomes
// whatever ep.Name() says. Same re-seeding semantics as SetPolicy.
func (b *Buffer) SetEvictionPolicy(ep EvictionPolicy) {
	if ep == nil {
		panic("cachebuf: nil eviction policy")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.installPolicyLocked(ep)
}

// installPolicyLocked swaps the policy and replays the current resident
// set into it so recency-class state starts from a defined point.
func (b *Buffer) installPolicyLocked(ep EvictionPolicy) {
	b.ep = ep
	for _, f := range b.frags {
		if !f.isGap() {
			ep.OnInsert(f.id, f.size)
		}
	}
}

// PolicyName reports the active eviction policy's name.
func (b *Buffer) PolicyName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ep.Name()
}

// SetWaitObserver installs fn to be called with the duration of every
// individual eviction wait (the Stats.EvictionWait aggregate, per stall).
// fn runs under the buffer lock and must not call back into the buffer;
// intended for the metrics layer's eviction-wait histogram. Configure
// before concurrent use.
func (b *Buffer) SetWaitObserver(fn func(time.Duration)) { b.waitObs = fn }

// observeWaitLocked accumulates one eviction stall.
func (b *Buffer) observeWaitLocked(d time.Duration) {
	b.stats.EvictionWait += d
	if b.waitObs != nil {
		b.waitObs(d)
	}
}

// Touch records an access to id for recency/frequency policies; the
// runtime calls it when a resident checkpoint serves a read.
func (b *Buffer) Touch(id ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.resident[id]; ok {
		b.ep.OnTouch(id)
	}
}

// Name returns the buffer's name (for diagnostics).
func (b *Buffer) Name() string { return b.name }

// Capacity returns the buffer capacity in bytes.
func (b *Buffer) Capacity() int64 { return b.capacity }

// Reserve finds (evicting if needed) a contiguous region of size bytes and
// registers id there, blocking in simulated time until space is available.
// It returns the assigned offset.
func (b *Buffer) Reserve(id ID, size int64) (int64, error) {
	return b.reserve(id, size, true)
}

// TryReserve is Reserve but fails with ErrWouldBlock instead of waiting
// (used by the prefetcher to avoid stalling behind pinned windows).
func (b *Buffer) TryReserve(id ID, size int64) (int64, error) {
	return b.reserve(id, size, false)
}

func (b *Buffer) reserve(id ID, size int64, wait bool) (int64, error) {
	if id < 0 {
		return 0, fmt.Errorf("cachebuf: %s: invalid id %d", b.name, id)
	}
	if size <= 0 {
		return 0, fmt.Errorf("cachebuf: %s: invalid size %d", b.name, size)
	}
	if size > b.capacity {
		return 0, ErrTooLarge
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.resident[id]; dup {
		return 0, ErrDuplicate
	}
	for {
		if b.closed {
			return 0, ErrClosed
		}
		// Fast path: a single unclaimed gap fits (best-fit to limit
		// fragmentation of large gaps).
		if off, ok := b.placeInGapLocked(id, size); ok {
			b.stats.Reservations++
			return off, nil
		}

		// Slow path: Algorithm 1 — find the best eviction window among
		// unclaimed, unpinned fragments. The scan and the claim run in
		// one critical section, so no other reservation can pick the same
		// fragments. Only the waits release the lock — for a feasible
		// window, and for a claimed window to become evictable — so
		// concurrent reservations (e.g. the co-located clients of a
		// shared host pool) do not convoy behind one client's flush.
		start, end, feasible := b.bestWindowLocked(size)
		if !feasible {
			// Every candidate window crosses a pinned or claimed
			// fragment.
			if !wait {
				return 0, ErrWouldBlock
			}
			// Wait for a state change (consume/flush) and rescan. A
			// failed scan or a claim wakes nobody: it cannot make
			// another reservation's scan feasible.
			waitStart := b.clk.Now()
			b.cond.Wait()
			b.observeWaitLocked(b.clk.Now() - waitStart)
			continue
		}
		if !wait && !b.windowEvictableLocked(start, end) {
			return 0, ErrWouldBlock
		}

		// Claim the window, then wait for the claimed fragments to become
		// evictable.
		startOff := b.frags[start].off
		endOff := b.frags[end-1].off + b.frags[end-1].size
		for i := start; i < end; i++ {
			b.frags[i].claimed = true
		}

		off, ok := b.evictClaimedLocked(id, size, startOff, endOff)
		if ok {
			b.stats.Reservations++
			return off, nil
		}
		// Closed while waiting: the claim was released.
		return 0, ErrClosed
	}
}

// placeInGapLocked looks for the tightest single gap that fits size and
// splits it. Returns the allocated offset.
func (b *Buffer) placeInGapLocked(id ID, size int64) (int64, bool) {
	best := -1
	var bestSize int64 = math.MaxInt64
	for i, f := range b.frags {
		if f.isGap() && !f.claimed && f.size >= size && f.size < bestSize {
			best, bestSize = i, f.size
		}
	}
	if best < 0 {
		return 0, false
	}
	g := b.frags[best]
	b.spliceLocked(best, best+1, b.newFragLocked(id, g.off, size), g.size-size)
	b.free -= size
	b.resident[id] = struct{}{}
	b.ep.OnInsert(id, size)
	return g.off, true
}

// newFragLocked builds id's fragment, asking the source for its entry.
func (b *Buffer) newFragLocked(id ID, off, size int64) frag {
	f := frag{id: id, off: off, size: size}
	if f.e, f.src = b.src.Entry(id); f.e == nil {
		f.e, f.src = &b.stale, &b.staleSrc
	}
	return f
}

// spliceLocked replaces frags[first:last] in place with nf followed, when
// rest > 0, by a gap of rest bytes.
func (b *Buffer) spliceLocked(first, last int, nf frag, rest int64) {
	n := 1
	if rest > 0 {
		n = 2
	}
	if first+n > last { // one fragment becomes two
		b.frags = append(b.frags, frag{})
		copy(b.frags[last+1:], b.frags[last:])
	} else {
		b.frags = append(b.frags[:first+n], b.frags[last:]...)
	}
	b.frags[first] = nf
	if rest > 0 {
		b.frags[first+1] = frag{id: gapID, off: nf.off + nf.size, size: rest}
	}
}

// windowEvictableLocked reports whether every checkpoint in frags[start:end]
// is evictable right now.
func (b *Buffer) windowEvictableLocked(start, end int) bool {
	for i := start; i < end; i++ {
		f := &b.frags[i]
		if f.isGap() {
			continue
		}
		kept := f.e.Flags()&Kept != 0
		if b.poll != nil {
			kept = !b.poll.Evictable(f.id)
		}
		if kept {
			return false
		}
	}
	return true
}

// evictClaimedLocked waits (releasing the lock) for every checkpoint in
// the claimed window [startOff, endOff) to become evictable, then erases
// the window and installs the new fragment. The claim keeps the window's
// boundaries stable while waiting: no other reservation can place into,
// select, or coalesce across it (Release inside it only turns checkpoints
// into claimed gaps). Returns ok=false — with the claim released — if the
// buffer closes while waiting.
func (b *Buffer) evictClaimedLocked(id ID, size int64, startOff, endOff int64) (int64, bool) {
	// Wait for evictability (Algorithm 1 line 24: "wait until A[i]
	// evictable"). Release(id) and Notify() broadcast the cond.
	first, last := b.claimedSpanLocked(startOff, endOff)
	for !b.windowEvictableLocked(first, last) {
		if b.closed {
			b.unclaimLocked(startOff, endOff)
			return 0, false
		}
		waitStart := b.clk.Now()
		b.cond.Wait()
		b.observeWaitLocked(b.clk.Now() - waitStart)
		first, last = b.claimedSpanLocked(startOff, endOff)
	}

	for _, f := range b.frags[first:last] {
		if !f.isGap() {
			delete(b.resident, f.id)
			b.stats.Evictions++
			b.stats.BytesEvicted += f.size
			b.free += f.size
			b.ep.OnEvict(f.id)
			b.src.Evicted(f.id)
		}
	}
	windowBytes := b.frags[last-1].off + b.frags[last-1].size - startOff
	if windowBytes < size {
		// Should not happen: the scan guaranteed the window fits.
		panic(fmt.Sprintf("cachebuf: %s: selected window of %d bytes < request %d",
			b.name, windowBytes, size))
	}

	b.spliceLocked(first, last, b.newFragLocked(id, startOff, size), windowBytes-size)
	b.free -= size
	b.coalesceLocked()
	b.resident[id] = struct{}{}
	b.ep.OnInsert(id, size)
	b.cond.Broadcast()
	return startOff, true
}

// unclaimLocked clears the claim on every fragment in [startOff, endOff)
// and re-merges any gap seams the claim boundaries held apart. It wakes
// nobody: it runs only after Close, whose broadcast readied every waiter.
func (b *Buffer) unclaimLocked(startOff, endOff int64) {
	for i := range b.frags {
		if b.frags[i].off >= startOff && b.frags[i].off < endOff {
			b.frags[i].claimed = false
		}
	}
	b.coalesceLocked()
}

// claimedSpanLocked returns the index range of the fragments that tile the
// claimed window [startOff, endOff) right now.
func (b *Buffer) claimedSpanLocked(startOff, endOff int64) (first, last int) {
	for first < len(b.frags) && b.frags[first].off < startOff {
		first++
	}
	if first == len(b.frags) || b.frags[first].off != startOff {
		panic(fmt.Sprintf("cachebuf: %s: claimed window at %d vanished", b.name, startOff))
	}
	for last = first; last < len(b.frags) && b.frags[last].off < endOff; last++ {
	}
	return first, last
}

// viewFrag is one fragment of a scan snapshot.
type viewFrag struct {
	id     ID // gapID for gaps
	size   int64
	p, s   float64
	pinned bool
}

// snapshotLocked reads every fragment's scores once into the buffer-owned
// snapshot, so what a policy adds when a fragment enters its window is what
// it subtracts when the fragment leaves. Gaps score (0, GapDistance); a
// claimed fragment is pinned unread (another reservation owns its window);
// any other costs one load of its entry and one of its source's queue
// head, plus the source's live estimate when it waits on a flush.
func (b *Buffer) snapshotLocked() WindowView {
	b.view = b.view[:0]
	b.stats.WindowScans++
	for i := range b.frags {
		f := &b.frags[i]
		vf := viewFrag{id: f.id, size: f.size, pinned: f.claimed}
		switch {
		case f.isGap():
			vf.s = float64(GapDistance)
		case !f.claimed:
			b.stats.FragmentsScored++
			if b.poll != nil {
				b.poll.scores(f)
			}
			// Head before the entry: a consumed hint's writer moves the
			// entry off the head position before it advances the head.
			head := f.src.Head.Load()
			w := f.e.word.Load()
			vf.s = float64(GapDistance - 1)
			if pos := int64(w >> hintShift); pos > 0 {
				vf.s = float64(pos - 1 - head)
			}
			switch {
			case Flags(w)&Pinned != 0:
				vf.pinned = true
			case Flags(w)&Estimate != 0:
				vf.p = f.src.Estimate(f.size).Seconds()
			default:
				vf.p = time.Duration(f.e.wait.Load()).Seconds()
			}
		}
		b.view = append(b.view, vf)
	}
	return WindowView{b.view}
}

// bestWindowLocked delegates window selection to the active eviction
// policy and enforces the pinning contract on whatever comes back: a
// window that is out of range, too small, or crosses a pinned/claimed
// fragment is rejected (treated as infeasible) rather than trusted —
// a buggy policy may stall a reservation but can never evict pinned
// data.
func (b *Buffer) bestWindowLocked(sizeNew int64) (start, end int, feasible bool) {
	v := b.snapshotLocked()
	start, end, feasible = b.ep.SelectWindow(v, sizeNew)
	if !feasible || start < 0 || end > len(v.frags) || start >= end {
		return 0, 0, false
	}
	var window int64
	for _, f := range v.frags[start:end] {
		if f.pinned {
			return 0, 0, false
		}
		window += f.size
	}
	if window < sizeNew {
		return 0, 0, false
	}
	return start, end, true
}

// Release removes id from the buffer (after consumption and discard, or
// when invalidating), turning its fragment into a gap. It reports whether
// the id was resident. Unlike eviction, Release does not read the entry
// and sends no Evicted notice.
func (b *Buffer) Release(id ID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.resident[id]; !ok {
		return false
	}
	for i := range b.frags {
		if f := &b.frags[i]; f.id == id {
			*f = frag{id: gapID, off: f.off, size: f.size, claimed: f.claimed}
			b.free += f.size
			break
		}
	}
	delete(b.resident, id)
	b.ep.OnRelease(id)
	b.coalesceLocked()
	b.cond.Broadcast()
	return true
}

// Contains reports id's fragment placement if resident.
func (b *Buffer) Contains(id ID) (off, size int64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, res := b.resident[id]; !res {
		return 0, 0, false
	}
	for _, f := range b.frags {
		if f.id == id {
			return f.off, f.size, true
		}
	}
	panic(fmt.Sprintf("cachebuf: %s: resident id %d missing from fragment list", b.name, id))
}

// IfResident runs fn under the buffer's lock if id is resident and reports
// whether it ran. Eviction holds the same lock from its final
// evictability check through fragment erasure, so a state change made
// inside fn (e.g. pinning the replica by moving its FSM to READ_COMPLETE)
// cannot race an in-flight eviction of the same fragment: either fn runs
// first and the eviction re-check sees the pin, or the eviction wins and
// fn never runs. fn must not call back into the buffer.
func (b *Buffer) IfResident(id ID, fn func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.resident[id]; !ok {
		return false
	}
	fn()
	return true
}

// Resident returns the number of cached checkpoints.
func (b *Buffer) Resident() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.resident)
}

// FreeBytes returns the total gap bytes.
func (b *Buffer) FreeBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.free
}

// UsedBytes returns the bytes occupied by resident checkpoints
// (capacity minus gaps) — the sampler's occupancy probe.
func (b *Buffer) UsedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity - b.free
}

// ScoreSummary condenses the resident checkpoints' eviction-score
// distribution for the time-series sampler: mean P-score (seconds until
// evictable; pinned fragments excluded) and mean S-score (prefetch
// distance) across resident, unpinned checkpoints.
func (b *Buffer) ScoreSummary() (meanP, meanS float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int
	for _, f := range b.snapshotLocked().frags {
		if f.id == gapID || f.pinned {
			continue
		}
		meanP += f.p
		meanS += f.s
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return meanP / float64(n), meanS / float64(n)
}

// LargestGap returns the size of the largest single gap.
func (b *Buffer) LargestGap() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var max int64
	for _, f := range b.frags {
		if f.isGap() && f.size > max {
			max = f.size
		}
	}
	return max
}

// FragmentCount returns the number of fragments (checkpoints + gaps).
func (b *Buffer) FragmentCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.frags)
}

// Notify wakes any reservation waiting for evictability; the runtime calls
// it whenever a checkpoint's life-cycle state changes.
func (b *Buffer) Notify() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Close unblocks all waiters with ErrClosed; subsequent reservations fail.
func (b *Buffer) Close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Snapshot returns a copy of the buffer statistics.
func (b *Buffer) Snapshot() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// coalesceLocked merges adjacent gaps with the same claim state,
// restoring invariant 2 while keeping claimed windows' boundaries intact.
func (b *Buffer) coalesceLocked() {
	out := b.frags[:0]
	for _, f := range b.frags {
		if n := len(out); n > 0 && out[n-1].isGap() && f.isGap() &&
			out[n-1].claimed == f.claimed {
			out[n-1].size += f.size
			continue
		}
		out = append(out, f)
	}
	b.frags = out
}

// CheckInvariants validates the geometry invariants; tests call it after
// random operation sequences.
func (b *Buffer) CheckInvariants() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var off, free int64
	seen := make(map[ID]struct{})
	for i, f := range b.frags {
		if f.off != off {
			return fmt.Errorf("fragment %d starts at %d, want %d (hole or overlap)", i, f.off, off)
		}
		if f.size <= 0 {
			return fmt.Errorf("fragment %d has non-positive size %d", i, f.size)
		}
		if f.isGap() && i > 0 && b.frags[i-1].isGap() &&
			f.claimed == b.frags[i-1].claimed {
			return fmt.Errorf("adjacent gaps at fragments %d-%d", i-1, i)
		}
		if !f.isGap() {
			if _, dup := seen[f.id]; dup {
				return fmt.Errorf("duplicate checkpoint id %d", f.id)
			}
			seen[f.id] = struct{}{}
			if _, ok := b.resident[f.id]; !ok {
				return fmt.Errorf("fragment id %d not in resident set", f.id)
			}
		} else {
			free += f.size
		}
		off += f.size
	}
	if free != b.free {
		return fmt.Errorf("free-byte counter reads %d, the gaps add up to %d", b.free, free)
	}
	if off != b.capacity {
		return fmt.Errorf("fragments cover %d bytes, want %d", off, b.capacity)
	}
	if len(seen) != len(b.resident) {
		return fmt.Errorf("resident set has %d ids, fragments have %d", len(b.resident), len(seen))
	}
	return nil
}
