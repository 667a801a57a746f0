package cachebuf

// This file defines the pluggable eviction-policy layer. The Buffer owns
// the fragment geometry (placement, claims, coalescing, the pinning
// contract) and delegates exactly one decision to an EvictionPolicy:
// given the current fragment list and a request size, which contiguous
// window of fragments should be sacrificed?
//
// Policies see the world through two channels:
//
//   - a WindowView handed to SelectWindow: a read-only, index-addressed
//     snapshot of the fragment list, including each fragment's pinned
//     state (per its entry and claim bookkeeping) and the paper's
//     p/s-scores;
//   - event callbacks (OnInsert/OnTouch/OnEvict/OnRelease) fired in the
//     buffer's order of events, so recency- and frequency-based policies
//     can maintain their own per-id state.
//
// The pinning contract is non-negotiable and enforced by the
// Buffer, not trusted to the policy: a returned window containing a
// pinned fragment is rejected (the buffer re-checks evictability before
// erasing anything), so a buggy policy can stall a reservation but can
// never lose data.

import (
	"fmt"
	"math"
)

// EvictionPolicy chooses eviction windows for a Buffer. Only the owning
// buffer calls its methods, from the tasks of the buffer's clock; they
// must not block, call back into the Buffer or retain the WindowView
// beyond the SelectWindow call.
type EvictionPolicy interface {
	// Name identifies the policy in diagnostics and benchmark labels.
	Name() string

	// SelectWindow picks the fragment index range [start, end) to evict
	// for a reservation of sizeNew bytes. The window must be contiguous,
	// cover at least sizeNew bytes, and avoid pinned fragments (the
	// buffer rejects windows that do not). feasible=false means no such
	// window exists right now and the reservation must wait.
	SelectWindow(v WindowView, sizeNew int64) (start, end int, feasible bool)

	// OnInsert observes a checkpoint landing in the buffer (fresh
	// reservation or post-eviction install).
	OnInsert(id ID, size int64)
	// OnTouch observes an access to a resident checkpoint (Buffer.Touch).
	OnTouch(id ID)
	// OnEvict observes the policy-driven eviction of a resident
	// checkpoint (capacity pressure). Victims of one window are reported
	// in ascending offset order.
	OnEvict(id ID)
	// OnRelease observes an explicit removal (consumption/discard or
	// invalidation via Buffer.Release) — a voluntary exit, not a
	// capacity eviction, so ghost/history bookkeeping may differ.
	OnRelease(id ID)
}

// WindowView is the read-only fragment snapshot SelectWindow scans: the
// buffer reads every fragment's scores once before the call, so a policy
// may ask about a fragment any number of times and always gets the same
// answer. The indices are fragment positions (checkpoints and gaps
// interleaved, sorted by offset, tiling the capacity). Views are only
// valid for the duration of the SelectWindow call.
type WindowView struct{ frags []viewFrag }

// Len returns the fragment count.
func (v WindowView) Len() int { return len(v.frags) }

// Frag returns fragment i's checkpoint id; ok=false for gaps.
func (v WindowView) Frag(i int) (id ID, ok bool) {
	if id = v.frags[i].id; id == gapID {
		return 0, false
	}
	return id, true
}

// Size returns fragment i's size in bytes.
func (v WindowView) Size(i int) int64 { return v.frags[i].size }

// PScore returns the estimated seconds until fragment i becomes evictable
// and whether it is pinned (never evictable right now: its entry says so,
// or a concurrent reservation has claimed it). Gaps are (0, unpinned).
func (v WindowView) PScore(i int) (score float64, pinned bool) {
	return v.frags[i].p, v.frags[i].pinned
}

// SScore returns fragment i's prefetch distance (gaps score GapDistance,
// farther than any real hint).
func (v WindowView) SScore(i int) float64 { return v.frags[i].s }

// Policy selects a built-in eviction policy by name. PolicyScore is the
// paper's Algorithm 1; LRU and FIFO are the classic baselines and ARC the
// DBMS-inspired contender used by the ablation benchmarks (they all honor
// pinning — eviction of a pinned replica would lose data — but ignore
// flush estimates and, except PolicyScore, prefetch distances).
type Policy int

const (
	// PolicyScore is the gap-aware sliding-window scored policy (§4.2).
	PolicyScore Policy = iota
	// PolicyLRU evicts the window whose most recently touched fragment
	// is least recent.
	PolicyLRU
	// PolicyFIFO evicts the window whose most recently inserted
	// fragment is oldest.
	PolicyFIFO
	// PolicyARC is the adaptive replacement cache: recency (T1) and
	// frequency (T2) lists with ghost lists (B1/B2) steering an
	// adaptation parameter that decides which list eviction prefers.
	PolicyARC
)

// policyNames orders the registered built-in policies; Policies and the
// parser derive from it so a new policy registers in exactly one place.
var policyNames = map[Policy]string{
	PolicyScore: "score",
	PolicyLRU:   "lru",
	PolicyFIFO:  "fifo",
	PolicyARC:   "arc",
}

// String names the policy.
func (p Policy) String() string {
	if n, ok := policyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Known reports whether p is a registered built-in policy.
func (p Policy) Known() bool {
	_, ok := policyNames[p]
	return ok
}

// Policies enumerates the registered built-in policies in declaration
// order (the ablation matrix iterates this).
func Policies() []Policy {
	return []Policy{PolicyScore, PolicyLRU, PolicyFIFO, PolicyARC}
}

// ParsePolicy resolves a policy by its String name.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cachebuf: unknown eviction policy %q (registered: %s)", name, policyList())
}

func policyList() string {
	s := ""
	for i, p := range Policies() {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s
}

// NewPolicy constructs the EvictionPolicy implementation for p. Unknown
// values are a hard error — the regression contract that replaced the
// old silent fall-through to the score policy.
func (p Policy) NewPolicy() (EvictionPolicy, error) {
	switch p {
	case PolicyScore:
		return &scorePolicy{}, nil
	case PolicyLRU:
		return newLRUPolicy(), nil
	case PolicyFIFO:
		return newFIFOPolicy(), nil
	case PolicyARC:
		return newARCPolicy(), nil
	}
	return nil, fmt.Errorf("cachebuf: unknown eviction policy %d (registered: %s)", int(p), policyList())
}

// ---------------------------------------------------------------------------
// Score: the paper's Algorithm 1 (gap-aware sliding window, incremental
// p/s-score maintenance, O(N) per scan). Stateless: every input comes
// from the fragments' entries through the view.

type scorePolicy struct{}

func (*scorePolicy) Name() string       { return "score" }
func (*scorePolicy) OnInsert(ID, int64) {}
func (*scorePolicy) OnTouch(ID)         {}
func (*scorePolicy) OnEvict(ID)         {}
func (*scorePolicy) OnRelease(ID)       {}

func (*scorePolicy) SelectWindow(v WindowView, sizeNew int64) (start, end int, feasible bool) {
	n := v.Len()
	j := 0
	var window int64
	var pScore, sScore float64
	var pinned int // pinned fragments in the current window
	minP := math.Inf(1)
	maxS := -1.0
	rStart, rEnd := -1, -1

	for i := 0; i < n; i++ {
		if i > 0 {
			p, pin := v.PScore(i - 1)
			pScore -= p
			if pin {
				pinned--
			}
			sScore -= v.SScore(i - 1)
			window -= v.Size(i - 1)
		}
		for window < sizeNew && j < n {
			p, pin := v.PScore(j)
			pScore += p
			if pin {
				pinned++
			}
			sScore += v.SScore(j)
			window += v.Size(j)
			j++
		}
		if window < sizeNew {
			break // suffix too small; no further window can fit
		}
		if pinned > 0 {
			continue // window crosses a pinned fragment: infeasible
		}
		if pScore < minP || (pScore == minP && sScore > maxS) {
			minP, maxS = pScore, sScore
			rStart, rEnd = i, j
		}
	}
	if rStart < 0 {
		return 0, 0, false
	}
	return rStart, rEnd, true
}

// ---------------------------------------------------------------------------
// The coldest-window scan shared by LRU, FIFO and ARC: the candidate
// window minimizing the maximum heat of its members wins
// (heat: higher = keep; gaps contribute nothing, so gap-only windows are
// coldest of all). Pinned (or claimed) fragments exclude a window.
// Every start re-walks its window, so a scan is O(N·w), w the fragments a
// fitting window spans: O(N²) when requests are large against the
// fragments. First minimal window in ascending start order wins ties — the
// determinism contract the reference models mirror.
//
// Heat values only matter through their ordering: each policy maps its
// internal state to a total order over resident ids (unknown ids rank
// coldest, defensively — the buffer replays residents on installation,
// so they should not occur).

const coldestUnknown = math.MinInt64 + 1

func coldestWindow(v WindowView, sizeNew int64, heat func(ID) int64) (start, end int, feasible bool) {
	n := v.Len()
	bestScore := int64(math.MaxInt64)
	rStart, rEnd := -1, -1
	for i := 0; i < n; i++ {
		var window int64
		maxHeat := int64(math.MinInt64)
		for j := i; j < n; j++ {
			if _, pin := v.PScore(j); pin {
				break
			}
			if id, ok := v.Frag(j); ok {
				if h := heat(id); h > maxHeat {
					maxHeat = h
				}
			}
			window += v.Size(j)
			if window >= sizeNew {
				if maxHeat < bestScore {
					bestScore = maxHeat
					rStart, rEnd = i, j+1
				}
				break
			}
		}
	}
	if rStart < 0 {
		return 0, 0, false
	}
	return rStart, rEnd, true
}

// ---------------------------------------------------------------------------
// LRU and FIFO baselines. Each keeps its own monotone event counter;
// inserts and touches arrive in the buffer's order of events, so counters
// order identically to it.

type lruPolicy struct {
	seq  int64
	last map[ID]int64
}

func newLRUPolicy() *lruPolicy { return &lruPolicy{last: map[ID]int64{}} }

func (*lruPolicy) Name() string { return "lru" }
func (p *lruPolicy) OnInsert(id ID, _ int64) {
	p.seq++
	p.last[id] = p.seq
}
func (p *lruPolicy) OnTouch(id ID) {
	p.seq++
	p.last[id] = p.seq
}
func (p *lruPolicy) OnEvict(id ID)   { delete(p.last, id) }
func (p *lruPolicy) OnRelease(id ID) { delete(p.last, id) }
func (p *lruPolicy) SelectWindow(v WindowView, sizeNew int64) (int, int, bool) {
	return coldestWindow(v, sizeNew, func(id ID) int64 {
		if s, ok := p.last[id]; ok {
			return s
		}
		return coldestUnknown
	})
}

type fifoPolicy struct {
	seq      int64
	inserted map[ID]int64
}

func newFIFOPolicy() *fifoPolicy { return &fifoPolicy{inserted: map[ID]int64{}} }

func (*fifoPolicy) Name() string { return "fifo" }
func (p *fifoPolicy) OnInsert(id ID, _ int64) {
	p.seq++
	p.inserted[id] = p.seq
}
func (p *fifoPolicy) OnTouch(ID)      {}
func (p *fifoPolicy) OnEvict(id ID)   { delete(p.inserted, id) }
func (p *fifoPolicy) OnRelease(id ID) { delete(p.inserted, id) }
func (p *fifoPolicy) SelectWindow(v WindowView, sizeNew int64) (int, int, bool) {
	return coldestWindow(v, sizeNew, func(id ID) int64 {
		if s, ok := p.inserted[id]; ok {
			return s
		}
		return coldestUnknown
	})
}

// ---------------------------------------------------------------------------
// ARC: resident checkpoints live in T1 (seen once recently) or T2 (seen
// at least twice); ghosts of T1/T2 evictions live in B1/B2. A ghost hit
// on insert adapts the target size p of T1 (B1 hit: grow p, favor
// recency; B2 hit: shrink p, favor frequency) and installs the entry in
// T2. SelectWindow computes once which list eviction should prefer
// (T1 if |T1| > p, else T2) and biases the other list one class hotter;
// within a list, LRU order.

const (
	// classBias lifts the non-preferred list above every member of the
	// preferred one regardless of sequence numbers. Sequence counters
	// are per-policy event counts, far below this bias in any realistic
	// run.
	classBias = int64(1) << 40
	// ghostLimit bounds ghost list length.
	ghostLimit = 4096
)

// ghostList is a bounded FIFO set of recently evicted ids; past
// ghostLimit entries it forgets its oldest.
type ghostList struct {
	order []ID
	seen  map[ID]bool
}

func newGhostList() *ghostList { return &ghostList{seen: map[ID]bool{}} }

func (g *ghostList) add(id ID) {
	if g.seen[id] {
		return
	}
	g.seen[id] = true
	g.order = append(g.order, id)
	if len(g.order) > ghostLimit {
		delete(g.seen, g.order[0])
		g.order = g.order[1:]
	}
}

func (g *ghostList) remove(id ID) {
	if !g.seen[id] {
		return
	}
	delete(g.seen, id)
	for i, v := range g.order {
		if v == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
}

func (g *ghostList) has(id ID) bool { return g.seen[id] }
func (g *ghostList) len() int       { return len(g.order) }

type arcPolicy struct {
	seq    int64
	t1, t2 map[ID]int64 // last access seq
	b1, b2 *ghostList
	p      int // target T1 size, in entries
}

func newARCPolicy() *arcPolicy {
	return &arcPolicy{t1: map[ID]int64{}, t2: map[ID]int64{}, b1: newGhostList(), b2: newGhostList()}
}

func (*arcPolicy) Name() string { return "arc" }

func (p *arcPolicy) OnInsert(id ID, _ int64) {
	p.seq++
	switch {
	case p.b1.has(id):
		// Recency ghost hit: recency list was too small.
		d := p.b2.len() / max(p.b1.len(), 1)
		if d < 1 {
			d = 1
		}
		p.p = min(p.p+d, len(p.t1)+len(p.t2)+1)
		p.b1.remove(id)
		p.t2[id] = p.seq
	case p.b2.has(id):
		d := p.b1.len() / max(p.b2.len(), 1)
		if d < 1 {
			d = 1
		}
		p.p = max(p.p-d, 0)
		p.b2.remove(id)
		p.t2[id] = p.seq
	default:
		p.t1[id] = p.seq
	}
}

func (p *arcPolicy) OnTouch(id ID) {
	p.seq++
	if _, ok := p.t1[id]; ok {
		delete(p.t1, id)
		p.t2[id] = p.seq
		return
	}
	if _, ok := p.t2[id]; ok {
		p.t2[id] = p.seq
	}
}

func (p *arcPolicy) OnEvict(id ID) {
	if _, ok := p.t1[id]; ok {
		delete(p.t1, id)
		p.b1.add(id)
		return
	}
	if _, ok := p.t2[id]; ok {
		delete(p.t2, id)
		p.b2.add(id)
	}
}

func (p *arcPolicy) OnRelease(id ID) {
	delete(p.t1, id)
	delete(p.t2, id)
}

func (p *arcPolicy) SelectWindow(v WindowView, sizeNew int64) (int, int, bool) {
	// Decide the preferred victim list once per scan so the ranking is
	// a consistent total order for the whole window search.
	preferT1 := len(p.t1) > 0 && (len(p.t1) > p.p || len(p.t2) == 0)
	heat := func(id ID) int64 {
		if s, ok := p.t1[id]; ok {
			if preferT1 {
				return s
			}
			return s + classBias
		}
		if s, ok := p.t2[id]; ok {
			if preferT1 {
				return s + classBias
			}
			return s
		}
		return coldestUnknown
	}
	return coldestWindow(v, sizeNew, heat)
}
