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
//  2. no two unclaimed gaps are adjacent (they coalesce eagerly; claimed
//     gaps keep their seams, which may be two claims' boundary);
//  3. every checkpoint id appears at most once.
package cachebuf

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"score/internal/simclock"
	"score/internal/slab"
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
// lookup. Writer and buffer are tasks of one clock, which runs one at a
// time, so the fields are plain words. The zero Entry reads as a
// checkpoint without a record — unpinned, evictable now, unhinted: a stale
// fragment, free to reclaim.
type Entry struct {
	word uint64 // Flags | (hint position + 1) << hintShift
	wait int64  // ns until evictable; unread when Pinned or Estimate
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

// SetFlags replaces the state bits and leaves the hint alone. It reports
// whether it cleared Pinned or Kept, the only bits a parked reservation
// waits on (Pinned for a feasible scan, Kept for its claimed window): then,
// and only then, the writer owes the buffer a Notify.
func (e *Entry) SetFlags(f Flags) (unblocked bool) {
	was := Flags(e.word) & (1<<hintShift - 1)
	e.word = e.word&^(1<<hintShift-1) | uint64(f)
	return was&^f&(Pinned|Kept) != 0
}

// Flags returns the state bits.
func (e *Entry) Flags() Flags { return Flags(e.word) & (1<<hintShift - 1) }

// SetHint writes the queue position (>= 0) of the checkpoint's first
// pending hint, or NoHint. A scan scores the position minus Source.Head,
// so advancing the head rewrites no entry.
func (e *Entry) SetHint(pos int) {
	e.word = e.word&(1<<hintShift-1) | uint64(pos+1)<<hintShift
}

// Hint returns what SetHint wrote.
func (e *Entry) Hint() int { return int(e.word>>hintShift) - 1 }

// Source is what the entries of one writer share at scan time.
type Source struct {
	// Head is the position of the head of the writer's restore-order queue.
	Head int64
	// Estimate predicts how long a flush of size bytes to the next tier
	// takes under the link load of this instant, for entries that flag it.
	Estimate func(size int64) time.Duration
}

// EntrySource hands a buffer the entries its writer maintains.
type EntrySource interface {
	// Entry returns id's entry and source. The buffer asks once, when it
	// places id, and holds both while the fragment lives. nil means id has no record.
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
	f.e.word, f.e.wait = w, int64(d)
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
	// WindowScans counts window selections' scans.
	WindowScans int64
	// FragmentsScored counts the entries those scans read: one per
	// unclaimed resident checkpoint per scan.
	FragmentsScored int64
}

// Buffer is one tier's pre-allocated contiguous cache region.
type Buffer struct {
	clk      *simclock.Virtual
	name     string
	capacity int64
	src      EntrySource
	poll     *polled // src when built from an Oracle, else nil
	stale    Entry   // zero: the entry of a fragment without a record
	staleSrc Source

	cond     simclock.Cond
	frags    []frag
	free     int64        // total gap bytes
	gaps     []gapKey     // every unclaimed gap, by size, then offset
	resident map[ID]int64 // id -> its fragment's offset; a fragment never moves
	closed   bool
	policy   Policy
	ep       EvictionPolicy
	stats    Stats
	waitObs  func(time.Duration) // per-wait eviction-stall observer

	// The scan snapshot, one slot per fragment, reused across scans and
	// valid until the next one.
	view []viewFrag
}

// New creates a buffer of the given capacity that polls oracle (non-nil)
// for its checkpoints' eviction inputs.
func New(clk *simclock.Virtual, name string, capacity int64, oracle Oracle) *Buffer {
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
func NewFromEntries(clk *simclock.Virtual, name string, capacity int64, src EntrySource) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("cachebuf: %s: capacity must be positive, got %d", name, capacity))
	}
	b := &Buffer{
		clk:      clk,
		name:     name,
		capacity: capacity,
		src:      src,
		frags:    append(slab.Make[frag](), frag{id: gapID, off: 0, size: capacity}),
		free:     capacity,
		gaps:     []gapKey{{capacity, 0}},
		resident: make(map[ID]int64, slab.Block),
	}
	b.cond = clk.NewCond(nil)
	ep, err := PolicyScore.NewPolicy()
	if err != nil {
		panic(err) // unreachable: PolicyScore is registered
	}
	b.ep = ep
	return b
}

// SetPolicy selects a built-in eviction policy (default PolicyScore).
// Unknown values are an error — there is no silent fallback. Intended
// for configuration at construction time; if called mid-life, the new
// policy is re-seeded by replaying an insert event for every resident
// checkpoint in offset order.
func (b *Buffer) SetPolicy(p Policy) error {
	ep, err := p.NewPolicy()
	if err != nil {
		return err
	}
	b.policy = p
	b.SetEvictionPolicy(ep)
	return nil
}

// SetEvictionPolicy installs a custom EvictionPolicy implementation
// (nil panics). The Policy enum reported by PolicyName becomes
// whatever ep.Name() says. Same re-seeding semantics as SetPolicy.
func (b *Buffer) SetEvictionPolicy(ep EvictionPolicy) {
	if ep == nil {
		panic("cachebuf: nil eviction policy")
	}
	// Replay the resident set so recency-class state starts from a
	// defined point.
	b.ep = ep
	for _, f := range b.frags {
		if !f.isGap() {
			ep.OnInsert(f.id, f.size)
		}
	}
}

// PolicyName reports the active eviction policy's name.
func (b *Buffer) PolicyName() string {
	return b.ep.Name()
}

// SetWaitObserver installs fn to be called with the duration of every
// individual eviction wait (the Stats.EvictionWait aggregate, per stall).
// fn must not call back into the buffer; intended for the metrics layer's
// eviction-wait histogram. Configure before the first reservation.
func (b *Buffer) SetWaitObserver(fn func(time.Duration)) { b.waitObs = fn }

// observeWait accumulates one eviction stall.
func (b *Buffer) observeWait(d time.Duration) {
	b.stats.EvictionWait += d
	if b.waitObs != nil {
		b.waitObs(d)
	}
}

// Touch records an access to id for recency/frequency policies; the
// runtime calls it when a resident checkpoint serves a read.
func (b *Buffer) Touch(id ID) {
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

	if _, dup := b.resident[id]; dup {
		return 0, ErrDuplicate
	}
	for {
		if b.closed {
			return 0, ErrClosed
		}
		// Fast path: a single unclaimed gap fits (best-fit to limit
		// fragmentation of large gaps).
		if off, ok := b.placeInGap(id, size); ok {
			b.stats.Reservations++
			return off, nil
		}

		// Slow path: Algorithm 1 — find the best eviction window among
		// unclaimed, unpinned fragments. Nothing blocks between the scan
		// and the claim, so no other reservation can pick the same
		// fragments. Only the waits yield — for a feasible window, and for
		// a claimed window to become evictable — so concurrent
		// reservations (e.g. the co-located clients of a shared host pool)
		// do not convoy behind one client's flush.
		start, end, feasible := b.bestWindow(size)
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
			b.observeWait(b.clk.Now() - waitStart)
			continue
		}
		if !wait && !b.windowEvictable(start, end) {
			return 0, ErrWouldBlock
		}

		// Claim the window, then wait for the claimed fragments to become
		// evictable.
		startOff := b.frags[start].off
		endOff := b.frags[end-1].off + b.frags[end-1].size
		for i := start; i < end; i++ {
			if f := &b.frags[i]; f.isGap() {
				b.unindexGap(*f)
			}
			b.frags[i].claimed = true
		}

		off, ok := b.evictClaimed(id, size, startOff, endOff)
		if ok {
			b.stats.Reservations++
			return off, nil
		}
		// Closed while waiting: the claim was released.
		return 0, ErrClosed
	}
}

// gapKey is an unclaimed gap's entry in the gap index.
type gapKey struct{ size, off int64 }

func (k gapKey) cmp(o gapKey) int {
	return cmp.Or(cmp.Compare(k.size, o.size), cmp.Compare(k.off, o.off))
}

// indexGap adds unclaimed gap f to the gap index.
func (b *Buffer) indexGap(f frag) {
	k := gapKey{f.size, f.off}
	i, _ := slices.BinarySearchFunc(b.gaps, k, gapKey.cmp)
	b.gaps = slices.Insert(b.gaps, i, k)
}

// unindexGap takes unclaimed gap f out of the gap index.
func (b *Buffer) unindexGap(f frag) {
	i, ok := slices.BinarySearchFunc(b.gaps, gapKey{f.size, f.off}, gapKey.cmp)
	if !ok {
		panic(fmt.Sprintf("cachebuf: %s: gap at %d missing from the gap index", b.name, f.off))
	}
	b.gaps = slices.Delete(b.gaps, i, i+1)
}

// placeInGap places id in the tightest unclaimed gap that fits size,
// the first in offset order on ties, and splits it. Returns the allocated
// offset.
func (b *Buffer) placeInGap(id ID, size int64) (int64, bool) {
	k, _ := slices.BinarySearchFunc(b.gaps, gapKey{size, -1}, gapKey.cmp)
	if k == len(b.gaps) {
		return 0, false
	}
	g := b.gaps[k]
	b.gaps = slices.Delete(b.gaps, k, k+1)
	i := b.search(g.off)
	b.splice(i, i+1, b.newFrag(id, g.off, size), g.size-size)
	if g.size > size {
		b.indexGap(b.frags[i+1])
	}
	b.free -= size
	b.resident[id] = g.off
	b.ep.OnInsert(id, size)
	return g.off, true
}

// newFrag builds id's fragment, asking the source for its entry.
func (b *Buffer) newFrag(id ID, off, size int64) frag {
	f := frag{id: id, off: off, size: size}
	if f.e, f.src = b.src.Entry(id); f.e == nil {
		f.e, f.src = &b.stale, &b.staleSrc
	}
	return f
}

// splice replaces frags[first:last] in place with nf followed, when
// rest > 0, by a gap of rest bytes.
func (b *Buffer) splice(first, last int, nf frag, rest int64) {
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

// windowEvictable reports whether every checkpoint in frags[start:end]
// is evictable right now.
func (b *Buffer) windowEvictable(start, end int) bool {
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

// evictClaimed waits for every checkpoint in
// the claimed window [startOff, endOff) to become evictable, then erases
// the window and installs the new fragment. The claim keeps the window's
// boundaries stable while waiting: no other reservation can place into,
// select, or coalesce across it (Release inside it only turns checkpoints
// into claimed gaps). Returns ok=false — with the claim released — if the
// buffer closes while waiting.
func (b *Buffer) evictClaimed(id ID, size int64, startOff, endOff int64) (int64, bool) {
	// Wait for evictability (Algorithm 1 line 24: "wait until A[i]
	// evictable"): a Release inside the window, or a Notify from the
	// writer whose entry write cleared Kept, broadcasts the cond.
	first, last := b.claimedSpan(startOff, endOff)
	for !b.windowEvictable(first, last) {
		if b.closed {
			b.unclaim(startOff, endOff)
			return 0, false
		}
		waitStart := b.clk.Now()
		b.cond.Wait()
		b.observeWait(b.clk.Now() - waitStart)
		first, last = b.claimedSpan(startOff, endOff)
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

	b.splice(first, last, b.newFrag(id, startOff, size), windowBytes-size)
	b.free -= size
	if windowBytes > size {
		b.mergeGap(first + 1) // the rest may meet a gap on its right
	}
	b.resident[id] = startOff
	b.ep.OnInsert(id, size)
	b.cond.Broadcast()
	return startOff, true
}

// unclaim clears the claim on every fragment in [startOff, endOff)
// and re-merges any gap seams the claim boundaries held apart. It wakes
// nobody: it runs only after Close, whose broadcast readied every waiter.
func (b *Buffer) unclaim(startOff, endOff int64) {
	for i := range b.frags {
		if b.frags[i].off >= startOff && b.frags[i].off < endOff {
			b.frags[i].claimed = false
		}
	}
	b.coalesce()
}

// claimedSpan returns the index range of the fragments that tile the
// claimed window [startOff, endOff) right now.
func (b *Buffer) claimedSpan(startOff, endOff int64) (first, last int) {
	first = b.search(startOff)
	if first == len(b.frags) || b.frags[first].off != startOff {
		panic(fmt.Sprintf("cachebuf: %s: claimed window at %d vanished", b.name, startOff))
	}
	return first, b.search(endOff)
}

// search returns the index of the first fragment at or past off.
func (b *Buffer) search(off int64) int {
	return sort.Search(len(b.frags), func(i int) bool { return b.frags[i].off >= off })
}

// fragIndex returns the index of resident id's fragment, at the offset
// resident recorded for it.
func (b *Buffer) fragIndex(id ID) int {
	i := b.search(b.resident[id])
	if i == len(b.frags) || b.frags[i].id != id {
		panic(fmt.Sprintf("cachebuf: %s: resident id %d missing from fragment list", b.name, id))
	}
	return i
}

// viewFrag is one fragment's slot in the scan snapshot: its id and size
// and the scores the scan read for it.
type viewFrag struct {
	id     ID // gapID for gaps
	size   int64
	p, s   float64
	pinned bool
}

// snapshot fills slot i of the buffer-owned snapshot with fragment
// i, reading every fragment's scores once, so what a policy adds when a
// fragment enters its window is what it subtracts when the fragment
// leaves. The snapshot grows only when the fragment count outgrows it.
// Gaps score (0, GapDistance); a claimed fragment is pinned unread
// (another reservation owns its window); any other is read by score.
func (b *Buffer) snapshot() WindowView {
	b.stats.WindowScans++
	b.view = slices.Grow(b.view[:0], len(b.frags))[:len(b.frags)]
	for i := range b.frags {
		f, vf := &b.frags[i], &b.view[i]
		vf.id, vf.size = f.id, f.size
		switch {
		case f.isGap():
			vf.p, vf.s, vf.pinned = 0, float64(GapDistance), f.claimed
		case f.claimed:
			vf.p, vf.s, vf.pinned = 0, 0, true
		default:
			b.stats.FragmentsScored++
			vf.p, vf.s, vf.pinned = b.score(f)
		}
	}
	return WindowView{b.view}
}

// score reads resident fragment f's eviction scores: one load of
// its entry and one of its source's queue head, plus the source's live
// estimate when it waits on a flush (after a pull oracle's refresh).
func (b *Buffer) score(f *frag) (p, s float64, pinned bool) {
	if b.poll != nil {
		b.poll.scores(f)
	}
	// Head before the entry: a consumed hint's writer moves the entry off
	// the head position before it advances the head.
	head := f.src.Head
	w := f.e.word
	s = float64(GapDistance - 1)
	if pos := int64(w >> hintShift); pos > 0 {
		s = float64(pos - 1 - head)
	}
	switch {
	case Flags(w)&Pinned != 0:
		return 0, s, true
	case Flags(w)&Estimate != 0:
		return f.src.Estimate(f.size).Seconds(), s, false
	}
	return time.Duration(f.e.wait).Seconds(), s, false
}

// bestWindow delegates window selection to the active eviction
// policy and enforces the pinning contract on whatever comes back: a
// window that is out of range, too small, or crosses a pinned/claimed
// fragment is rejected (treated as infeasible) rather than trusted —
// a buggy policy may stall a reservation but can never evict pinned
// data.
func (b *Buffer) bestWindow(sizeNew int64) (start, end int, feasible bool) {
	v := b.snapshot()
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
	if _, ok := b.resident[id]; !ok {
		return false
	}
	i := b.fragIndex(id)
	f := &b.frags[i]
	*f = frag{id: gapID, off: f.off, size: f.size, claimed: f.claimed}
	b.free += f.size
	delete(b.resident, id)
	b.ep.OnRelease(id)
	b.mergeGap(i)
	b.cond.Broadcast()
	return true
}

// Contains reports id's fragment placement if resident.
func (b *Buffer) Contains(id ID) (off, size int64, ok bool) {
	if _, res := b.resident[id]; !res {
		return 0, 0, false
	}
	f := &b.frags[b.fragIndex(id)]
	return f.off, f.size, true
}

// Resident returns the number of cached checkpoints.
func (b *Buffer) Resident() int {
	return len(b.resident)
}

// FreeBytes returns the total gap bytes.
func (b *Buffer) FreeBytes() int64 {
	return b.free
}

// UsedBytes returns the bytes occupied by resident checkpoints
// (capacity minus gaps) — the sampler's occupancy probe.
func (b *Buffer) UsedBytes() int64 {
	return b.capacity - b.free
}

// ScoreSummary condenses the resident checkpoints' eviction-score
// distribution for the time-series sampler: mean P-score (seconds until
// evictable; pinned fragments excluded) and mean S-score (prefetch
// distance) across resident, unpinned checkpoints. It reads the
// fragments in place: no window scan, so sampling leaves Stats as it is.
func (b *Buffer) ScoreSummary() (meanP, meanS float64) {
	var n int
	for i := range b.frags {
		if f := &b.frags[i]; !f.isGap() && !f.claimed {
			if p, s, pinned := b.score(f); !pinned {
				meanP += p
				meanS += s
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return meanP / float64(n), meanS / float64(n)
}

// LargestGap returns the size of the largest single gap.
func (b *Buffer) LargestGap() int64 {
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
	return len(b.frags)
}

// Notify wakes any reservation waiting for evictability: an entry writer
// calls it after a SetFlags that cleared Pinned or Kept (gaps and claims
// wake their own waiters), the runtime behind an Oracle at every change.
func (b *Buffer) Notify() {
	b.cond.Broadcast()
}

// Close unblocks all waiters with ErrClosed; subsequent reservations fail.
func (b *Buffer) Close() {
	b.closed = true
	b.cond.Broadcast()
}

// Snapshot returns a copy of the buffer statistics.
func (b *Buffer) Snapshot() Stats {
	return b.stats
}

// mergeGap merges gap i, new, with its unclaimed neighbouring gaps —
// the only seams a gap appearing at i can open — restoring invariant 2, and
// indexes the merged gap. A claimed gap merges with nothing: it may border
// another reservation's claimed window, and the seam between the two is
// the boundary each claim waits on.
func (b *Buffer) mergeGap(i int) {
	if b.frags[i].claimed {
		return
	}
	joins := func(j int) bool {
		return j >= 0 && j < len(b.frags) && b.frags[j].isGap() && !b.frags[j].claimed
	}
	lo, hi := i, i+1
	if joins(lo - 1) {
		lo--
	}
	if joins(hi) {
		hi++
	}
	for j := lo; j < hi; j++ {
		if j != i {
			b.unindexGap(b.frags[j])
		}
	}
	b.frags[lo].size = b.frags[hi-1].off + b.frags[hi-1].size - b.frags[lo].off
	b.frags = slices.Delete(b.frags, lo+1, hi)
	b.indexGap(b.frags[lo])
}

// coalesce merges every run of adjacent unclaimed gaps and rebuilds
// the gap index.
func (b *Buffer) coalesce() {
	out := b.frags[:0]
	for _, f := range b.frags {
		if n := len(out); n > 0 && out[n-1].isGap() && !out[n-1].claimed && f.isGap() && !f.claimed {
			out[n-1].size += f.size
			continue
		}
		out = append(out, f)
	}
	b.frags = out
	b.gaps = b.unclaimedGaps(b.gaps[:0])
}

// unclaimedGaps appends the unclaimed gaps to keys, in index order.
func (b *Buffer) unclaimedGaps(keys []gapKey) []gapKey {
	for _, f := range b.frags {
		if f.isGap() && !f.claimed {
			keys = append(keys, gapKey{f.size, f.off})
		}
	}
	slices.SortFunc(keys, gapKey.cmp)
	return keys
}

// CheckInvariants validates the geometry invariants, the offsets resident
// records and the gap index; tests call it after random operation
// sequences.
func (b *Buffer) CheckInvariants() error {
	var off, free int64
	seen := make(map[ID]struct{})
	for i, f := range b.frags {
		if f.off != off {
			return fmt.Errorf("fragment %d starts at %d, want %d (hole or overlap)", i, f.off, off)
		}
		if f.size <= 0 {
			return fmt.Errorf("fragment %d has non-positive size %d", i, f.size)
		}
		if f.isGap() && !f.claimed && i > 0 && b.frags[i-1].isGap() && !b.frags[i-1].claimed {
			return fmt.Errorf("adjacent unclaimed gaps at fragments %d-%d", i-1, i)
		}
		if !f.isGap() {
			if _, dup := seen[f.id]; dup {
				return fmt.Errorf("duplicate checkpoint id %d", f.id)
			}
			seen[f.id] = struct{}{}
			if at, ok := b.resident[f.id]; !ok {
				return fmt.Errorf("fragment id %d not in resident set", f.id)
			} else if at != f.off {
				return fmt.Errorf("resident id %d recorded at offset %d, its fragment is at %d", f.id, at, f.off)
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
	if want := b.unclaimedGaps(nil); !slices.Equal(b.gaps, want) {
		return fmt.Errorf("gap index %v, the unclaimed gaps are %v", b.gaps, want)
	}
	return nil
}
