package cachebuf

// DBMS-inspired replacement policies adapted to the window-eviction
// model. Classic formulations evict one page at a time; here a policy
// instead induces a total "heat" order over resident checkpoints, and
// the shared coldestWindow scan picks the contiguous window whose
// hottest member is coldest. Ghost/history structures are bounded by
// ghostLimit entries and evict their own oldest entry FIFO-fashion.

const (
	// classBias separates heat classes: any member of a hotter class
	// outranks every member of a colder one regardless of sequence
	// numbers. Sequence counters are per-policy event counts, far below
	// this bias in any realistic run.
	classBias = int64(1) << 40
	// ghostLimit bounds ghost/history list length.
	ghostLimit = 4096
)

// ghostList is a bounded FIFO set of recently evicted ids.
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

// ---------------------------------------------------------------------------
// LRU-K (K=2): rank by backward K-distance. A checkpoint's heat is the
// sequence number of its K-th most recent access; checkpoints with
// fewer than K recorded accesses are one class colder and LRU-ordered
// among themselves. Access history is retained across eviction (the
// defining trait of LRU-K), bounded like a ghost list.

type lrukPolicy struct {
	k        int
	seq      int64
	hist     map[ID][]int64 // most recent K access seqs, newest last
	order    []ID           // FIFO of ids with history, for bounding
	resident map[ID]bool
}

func newLRUKPolicy(k int) *lrukPolicy {
	return &lrukPolicy{k: k, hist: map[ID][]int64{}, resident: map[ID]bool{}}
}

func (*lrukPolicy) Name() string { return "lru-k" }

func (p *lrukPolicy) access(id ID) {
	p.seq++
	h, had := p.hist[id]
	h = append(h, p.seq)
	if len(h) > p.k {
		h = h[len(h)-p.k:]
	}
	p.hist[id] = h
	if !had {
		p.order = append(p.order, id)
		if len(p.order) > ghostLimit {
			old := p.order[0]
			p.order = p.order[1:]
			if !p.resident[old] {
				delete(p.hist, old)
			}
		}
	}
}

func (p *lrukPolicy) OnInsert(id ID, _ int64) {
	p.resident[id] = true
	p.access(id)
}
func (p *lrukPolicy) OnTouch(id ID) { p.access(id) }
func (p *lrukPolicy) OnEvict(id ID) { delete(p.resident, id) } // history survives
func (p *lrukPolicy) OnRelease(id ID) {
	delete(p.resident, id)
	delete(p.hist, id) // voluntary exit: forget it
	for i, v := range p.order {
		if v == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

func (p *lrukPolicy) heat(id ID) int64 {
	h, ok := p.hist[id]
	if !ok || len(h) == 0 {
		return coldestUnknown
	}
	if len(h) < p.k {
		// Infinite backward K-distance: colder than any full-history
		// checkpoint, LRU among themselves.
		return h[len(h)-1] - classBias
	}
	return h[0] // K-th most recent access
}

func (p *lrukPolicy) SelectWindow(v WindowView, sizeNew int64) (int, int, bool) {
	return coldestWindow(v, sizeNew, p.heat)
}

// ---------------------------------------------------------------------------
// 2Q (simplified): new checkpoints enter the probation FIFO A1in;
// touches inside A1in do not promote (filtering one-shot scans).
// Eviction from A1in records the id in the A1out ghost; a re-insert
// that hits the ghost goes straight to the LRU-managed main queue Am,
// as does any touch of an Am member. A1in members are one class colder
// than Am members.

type twoQPolicy struct {
	seq   int64
	a1in  map[ID]int64 // probation: insert seq
	am    map[ID]int64 // main: last access seq
	a1out *ghostList
}

func new2QPolicy() *twoQPolicy {
	return &twoQPolicy{a1in: map[ID]int64{}, am: map[ID]int64{}, a1out: newGhostList()}
}

func (*twoQPolicy) Name() string { return "2q" }

func (p *twoQPolicy) OnInsert(id ID, _ int64) {
	p.seq++
	if p.a1out.has(id) {
		p.a1out.remove(id)
		p.am[id] = p.seq
		return
	}
	p.a1in[id] = p.seq
}

func (p *twoQPolicy) OnTouch(id ID) {
	p.seq++
	if _, ok := p.am[id]; ok {
		p.am[id] = p.seq
	}
	// Touch inside A1in: deliberately no promotion, no recency bump.
}

func (p *twoQPolicy) OnEvict(id ID) {
	if _, ok := p.a1in[id]; ok {
		delete(p.a1in, id)
		p.a1out.add(id)
		return
	}
	delete(p.am, id)
}

func (p *twoQPolicy) OnRelease(id ID) {
	delete(p.a1in, id)
	delete(p.am, id)
}

func (p *twoQPolicy) heat(id ID) int64 {
	if s, ok := p.am[id]; ok {
		return s
	}
	if s, ok := p.a1in[id]; ok {
		return s - classBias
	}
	return coldestUnknown
}

func (p *twoQPolicy) SelectWindow(v WindowView, sizeNew int64) (int, int, bool) {
	return coldestWindow(v, sizeNew, p.heat)
}

// ---------------------------------------------------------------------------
// ARC: resident checkpoints live in T1 (seen once recently) or T2 (seen
// at least twice); ghosts of T1/T2 evictions live in B1/B2. A ghost hit
// on insert adapts the target size p of T1 (B1 hit: grow p, favor
// recency; B2 hit: shrink p, favor frequency) and installs the entry in
// T2. SelectWindow computes once which list eviction should prefer
// (T1 if |T1| > p, else T2) and biases the other list one class hotter;
// within a list, LRU order.

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

// ---------------------------------------------------------------------------
// CLOCK-Pro (simplified, two classes): resident checkpoints sit on a
// clock ring in insertion order with a reference bit and a hot/cold
// class. Touches set the reference bit. SelectWindow ranks residents by
// a virtual hand sweep — from the hand, lap after lap, applying the
// CLOCK-Pro transitions without mutating real state — and the order in
// which the virtual sweep would evict them is the coldness order.
// OnEvict commits one real partial sweep from the hand to the chosen
// victim (the window's members are evicted in offset order, which may
// differ from sweep order; the sweep stops at each reported victim in
// turn). Cold evictees enter a ghost test list; re-inserting a ghost
// makes the newcomer hot.

type clockProPolicy struct {
	ring  []ID
	hand  int
	hot   map[ID]bool
	ref   map[ID]bool
	ghost *ghostList
}

func newClockProPolicy() *clockProPolicy {
	return &clockProPolicy{hot: map[ID]bool{}, ref: map[ID]bool{}, ghost: newGhostList()}
}

func (*clockProPolicy) Name() string { return "clock-pro" }

func (p *clockProPolicy) OnInsert(id ID, _ int64) {
	if p.ghost.has(id) {
		p.ghost.remove(id)
		p.hot[id] = true
	}
	// Insert just behind the hand (the classic "tail of the clock").
	if p.hand == 0 || len(p.ring) == 0 {
		p.ring = append(p.ring, id)
	} else {
		p.ring = append(p.ring[:p.hand:p.hand], append([]ID{id}, p.ring[p.hand:]...)...)
		p.hand++
	}
	p.ref[id] = false
}

func (p *clockProPolicy) OnTouch(id ID) {
	if _, ok := p.ref[id]; ok {
		p.ref[id] = true
	}
}

func (p *clockProPolicy) removeFromRing(id ID) {
	for i, v := range p.ring {
		if v == id {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if p.hand > i {
				p.hand--
			}
			if len(p.ring) == 0 {
				p.hand = 0
			} else {
				p.hand %= len(p.ring)
			}
			return
		}
	}
}

// OnEvict commits the hand movement and state transitions the virtual
// sweep predicted for this victim, then removes it from the ring.
func (p *clockProPolicy) OnEvict(id ID) {
	for n := 0; len(p.ring) > 0 && n < 2*len(p.ring)+2; n++ {
		cur := p.ring[p.hand]
		if cur == id {
			break
		}
		if p.ref[cur] {
			p.ref[cur] = false
			if !p.hot[cur] {
				p.hot[cur] = true // referenced cold page: promote
			}
		} else if p.hot[cur] {
			p.hot[cur] = false // unreferenced hot page: demote
		}
		p.hand = (p.hand + 1) % len(p.ring)
	}
	if !p.hot[id] {
		p.ghost.add(id)
	}
	delete(p.hot, id)
	delete(p.ref, id)
	p.removeFromRing(id)
}

func (p *clockProPolicy) OnRelease(id ID) {
	delete(p.hot, id)
	delete(p.ref, id)
	p.removeFromRing(id)
}

// sweepRanks runs the virtual sweep: returns eviction rank per id
// (0 = first to go = coldest).
func (p *clockProPolicy) sweepRanks() map[ID]int {
	n := len(p.ring)
	ranks := make(map[ID]int, n)
	if n == 0 {
		return ranks
	}
	hot := make(map[ID]bool, len(p.hot))
	ref := make(map[ID]bool, len(p.ref))
	for id, v := range p.hot {
		hot[id] = v
	}
	for id, v := range p.ref {
		ref[id] = v
	}
	ring := append([]ID(nil), p.ring...)
	pos := p.hand
	rank := 0
	for len(ring) > 0 {
		pos %= len(ring)
		id := ring[pos]
		switch {
		case !hot[id] && !ref[id]:
			ranks[id] = rank
			rank++
			ring = append(ring[:pos], ring[pos+1:]...)
		case !hot[id] && ref[id]:
			ref[id] = false
			hot[id] = true
			pos++
		case hot[id] && ref[id]:
			ref[id] = false
			pos++
		default: // hot, unreferenced
			hot[id] = false
			pos++
		}
	}
	return ranks
}

func (p *clockProPolicy) SelectWindow(v WindowView, sizeNew int64) (int, int, bool) {
	ranks := p.sweepRanks()
	n := len(ranks)
	heat := func(id ID) int64 {
		if r, ok := ranks[id]; ok {
			return int64(n - r) // coldest (rank 0) = lowest heat
		}
		return coldestUnknown
	}
	return coldestWindow(v, sizeNew, heat)
}
