package cachebuf

// Naive reference models for the differential harness. The modelBuffer
// re-implements the buffer's single-threaded reservation semantics in
// the most obvious way possible — explicit fragment slices, offsets by
// prefix sum, O(N³) exhaustive window enumeration, direct float
// summation for scores — and each model policy keeps its state as
// plainly ordered ID slices (coldest first) instead of the production
// sequence-counter maps. The production buffer and the model agree on
// every observable (victims, offsets, errors, residency) iff the
// production's incremental scans and event bookkeeping are correct.
//
// Scope: the model is single-threaded and models TryReserve only (no
// claims, no waiting), with id spaces far below the production ghost
// bound so unbounded model histories match bounded production ones.

import (
	"math"
	"time"
)

// refOracle is the oracle subset the model consults.
type refOracle interface {
	Evictable(id ID) bool
	TimeToEvictable(id ID) (time.Duration, bool)
	PrefetchDistance(id ID) int
}

type mFrag struct {
	id   ID // gapID for gaps
	size int64
}

type modelBuffer struct {
	capacity int64
	frags    []mFrag
	oracle   refOracle
	policy   modelPolicy
	victims  []ID // victims of the last successful tryReserve
}

func newModelBuffer(capacity int64, o refOracle, p modelPolicy) *modelBuffer {
	return &modelBuffer{
		capacity: capacity,
		frags:    []mFrag{{id: gapID, size: capacity}},
		oracle:   o,
		policy:   p,
	}
}

func (m *modelBuffer) offsetOf(i int) int64 {
	var off int64
	for k := 0; k < i; k++ {
		off += m.frags[k].size
	}
	return off
}

func (m *modelBuffer) indexOf(id ID) int {
	for i, f := range m.frags {
		if f.id == id {
			return i
		}
	}
	return -1
}

func (m *modelBuffer) resident(id ID) bool { return m.indexOf(id) >= 0 }

func (m *modelBuffer) usedBytes() int64 {
	var used int64
	for _, f := range m.frags {
		if f.id != gapID {
			used += f.size
		}
	}
	return used
}

func (m *modelBuffer) coalesce() {
	out := m.frags[:0]
	for _, f := range m.frags {
		if n := len(out); n > 0 && out[n-1].id == gapID && f.id == gapID {
			out[n-1].size += f.size
			continue
		}
		out = append(out, f)
	}
	m.frags = out
}

func (m *modelBuffer) pinned(f mFrag) bool {
	if f.id == gapID {
		return false
	}
	_, ok := m.oracle.TimeToEvictable(f.id)
	return !ok
}

func (m *modelBuffer) release(id ID) bool {
	i := m.indexOf(id)
	if i < 0 {
		return false
	}
	m.frags[i].id = gapID
	m.policy.release(id)
	m.coalesce()
	return true
}

func (m *modelBuffer) touch(id ID) {
	if m.resident(id) {
		m.policy.touch(id)
	}
}

// tryReserve mirrors Buffer.TryReserve: duplicate check, best-fit
// single-gap fast path (tightest gap, first on ties), then exhaustive
// window enumeration; a chosen window whose members are not all
// evictable right now is ErrWouldBlock with no side effects.
func (m *modelBuffer) tryReserve(id ID, size int64) (int64, error) {
	m.victims = nil
	if size > m.capacity {
		return 0, ErrTooLarge
	}
	if m.resident(id) {
		return 0, ErrDuplicate
	}

	best := -1
	var bestSize int64 = math.MaxInt64
	for i, f := range m.frags {
		if f.id == gapID && f.size >= size && f.size < bestSize {
			best, bestSize = i, f.size
		}
	}
	if best >= 0 {
		off := m.offsetOf(best)
		repl := []mFrag{{id: id, size: size}}
		if rest := m.frags[best].size - size; rest > 0 {
			repl = append(repl, mFrag{id: gapID, size: rest})
		}
		m.frags = append(m.frags[:best:best], append(repl, m.frags[best+1:]...)...)
		m.policy.insert(id)
		return off, nil
	}

	start, end, feasible := m.selectWindow(size)
	if !feasible {
		return 0, ErrWouldBlock
	}
	for i := start; i < end; i++ {
		if f := m.frags[i]; f.id != gapID && !m.oracle.Evictable(f.id) {
			return 0, ErrWouldBlock
		}
	}
	off := m.offsetOf(start)
	var windowBytes int64
	for i := start; i < end; i++ {
		f := m.frags[i]
		windowBytes += f.size
		if f.id != gapID {
			m.victims = append(m.victims, f.id)
			m.policy.evict(f.id)
		}
	}
	repl := []mFrag{{id: id, size: size}}
	if rest := windowBytes - size; rest > 0 {
		repl = append(repl, mFrag{id: gapID, size: rest})
	}
	m.frags = append(m.frags[:start:start], append(repl, m.frags[end:]...)...)
	m.coalesce()
	m.policy.insert(id)
	return off, nil
}

// selectWindow enumerates, for every start index, the minimal window
// reaching size, drops windows containing pinned fragments, and keeps
// the one the policy ranks best (first in start order on ties).
func (m *modelBuffer) selectWindow(size int64) (int, int, bool) {
	n := len(m.frags)
	bestStart, bestEnd := -1, -1
	for i := 0; i < n; i++ {
		var w int64
		for j := i; j < n; j++ {
			w += m.frags[j].size
			if w < size {
				continue
			}
			ok := true
			for k := i; k <= j; k++ {
				if m.pinned(m.frags[k]) {
					ok = false
					break
				}
			}
			if ok {
				if bestStart < 0 || m.policy.better(m, i, j+1, bestStart, bestEnd) {
					bestStart, bestEnd = i, j+1
				}
			}
			break // only the minimal window per start is a candidate
		}
	}
	if bestStart < 0 {
		return 0, 0, false
	}
	return bestStart, bestEnd, true
}

// modelPolicy is the reference-model counterpart of EvictionPolicy:
// same event stream, but window ranking is a pairwise comparison so the
// model never needs the production's incremental state.
type modelPolicy interface {
	name() string
	insert(id ID)
	touch(id ID)
	evict(id ID)
	release(id ID)
	// better reports whether window a strictly beats window b.
	better(m *modelBuffer, aStart, aEnd, bStart, bEnd int) bool
}

func newModelPolicy(p Policy) modelPolicy {
	switch p {
	case PolicyScore:
		return &modelScore{}
	case PolicyLRU:
		return &modelLRU{}
	case PolicyFIFO:
		return &modelFIFO{}
	case PolicyARC:
		return &modelARC{}
	}
	return nil
}

// idList helpers: plain ordered slices, coldest first.

func listRemove(l []ID, id ID) []ID {
	for i, v := range l {
		if v == id {
			return append(l[:i:i], l[i+1:]...)
		}
	}
	return l
}

func listIndex(l []ID, id ID) int {
	for i, v := range l {
		if v == id {
			return i
		}
	}
	return -1
}

func listHas(l []ID, id ID) bool { return listIndex(l, id) >= 0 }

// heatBetter ranks two windows by the coldest-max-heat rule shared by
// every recency/frequency model (gap-only windows are coldest).
func heatBetter(m *modelBuffer, aStart, aEnd, bStart, bEnd int, heat func(ID) int64) bool {
	maxHeat := func(start, end int) int64 {
		h := int64(math.MinInt64)
		for i := start; i < end; i++ {
			if f := m.frags[i]; f.id != gapID {
				if v := heat(f.id); v > h {
					h = v
				}
			}
		}
		return h
	}
	return maxHeat(aStart, aEnd) < maxHeat(bStart, bEnd)
}

// ---------------------------------------------------------------------------
// Score: direct float summation of the oracle's p/s values.

type modelScore struct{}

func (*modelScore) name() string { return "score" }
func (*modelScore) insert(ID)    {}
func (*modelScore) touch(ID)     {}
func (*modelScore) evict(ID)     {}
func (*modelScore) release(ID)   {}

func (*modelScore) better(m *modelBuffer, aStart, aEnd, bStart, bEnd int) bool {
	score := func(start, end int) (p, s float64) {
		for i := start; i < end; i++ {
			f := m.frags[i]
			if f.id == gapID {
				s += float64(GapDistance)
				continue
			}
			d, _ := m.oracle.TimeToEvictable(f.id)
			p += d.Seconds()
			s += float64(m.oracle.PrefetchDistance(f.id))
		}
		return p, s
	}
	pa, sa := score(aStart, aEnd)
	pb, sb := score(bStart, bEnd)
	return pa < pb || (pa == pb && sa > sb)
}

// ---------------------------------------------------------------------------
// LRU: one list, least recently accessed first.

type modelLRU struct{ order []ID }

func (*modelLRU) name() string    { return "lru" }
func (p *modelLRU) insert(id ID)  { p.order = append(listRemove(p.order, id), id) }
func (p *modelLRU) touch(id ID)   { p.order = append(listRemove(p.order, id), id) }
func (p *modelLRU) evict(id ID)   { p.order = listRemove(p.order, id) }
func (p *modelLRU) release(id ID) { p.order = listRemove(p.order, id) }
func (p *modelLRU) better(m *modelBuffer, a, b, c, d int) bool {
	return heatBetter(m, a, b, c, d, func(id ID) int64 { return int64(listIndex(p.order, id)) })
}

// ---------------------------------------------------------------------------
// FIFO: one list, oldest insertion first; touches ignored.

type modelFIFO struct{ order []ID }

func (*modelFIFO) name() string    { return "fifo" }
func (p *modelFIFO) insert(id ID)  { p.order = append(listRemove(p.order, id), id) }
func (p *modelFIFO) touch(ID)      {}
func (p *modelFIFO) evict(id ID)   { p.order = listRemove(p.order, id) }
func (p *modelFIFO) release(id ID) { p.order = listRemove(p.order, id) }
func (p *modelFIFO) better(m *modelBuffer, a, b, c, d int) bool {
	return heatBetter(m, a, b, c, d, func(id ID) int64 { return int64(listIndex(p.order, id)) })
}

// ---------------------------------------------------------------------------
// ARC: T1/T2 LRU lists, B1/B2 ghost lists, adaptive target p.

type modelARC struct {
	t1, t2 []ID
	b1, b2 []ID
	p      int
}

func (*modelARC) name() string { return "arc" }
func (p *modelARC) insert(id ID) {
	switch {
	case listHas(p.b1, id):
		d := len(p.b2) / max(len(p.b1), 1)
		if d < 1 {
			d = 1
		}
		p.p = min(p.p+d, len(p.t1)+len(p.t2)+1)
		p.b1 = listRemove(p.b1, id)
		p.t2 = append(p.t2, id)
	case listHas(p.b2, id):
		d := len(p.b1) / max(len(p.b2), 1)
		if d < 1 {
			d = 1
		}
		p.p = max(p.p-d, 0)
		p.b2 = listRemove(p.b2, id)
		p.t2 = append(p.t2, id)
	default:
		p.t1 = append(p.t1, id)
	}
}
func (p *modelARC) touch(id ID) {
	if listHas(p.t1, id) {
		p.t1 = listRemove(p.t1, id)
		p.t2 = append(p.t2, id)
		return
	}
	if listHas(p.t2, id) {
		p.t2 = append(listRemove(p.t2, id), id)
	}
}
func (p *modelARC) evict(id ID) {
	if listHas(p.t1, id) {
		p.t1 = listRemove(p.t1, id)
		if !listHas(p.b1, id) {
			p.b1 = append(p.b1, id)
		}
		return
	}
	if listHas(p.t2, id) {
		p.t2 = listRemove(p.t2, id)
		if !listHas(p.b2, id) {
			p.b2 = append(p.b2, id)
		}
	}
}
func (p *modelARC) release(id ID) {
	p.t1 = listRemove(p.t1, id)
	p.t2 = listRemove(p.t2, id)
}
func (p *modelARC) better(m *modelBuffer, a, b, c, d int) bool {
	preferT1 := len(p.t1) > 0 && (len(p.t1) > p.p || len(p.t2) == 0)
	heat := func(id ID) int64 {
		if i := listIndex(p.t1, id); i >= 0 {
			if preferT1 {
				return int64(i)
			}
			return int64(i) + classBias
		}
		if i := listIndex(p.t2, id); i >= 0 {
			if preferT1 {
				return int64(i) + classBias
			}
			return int64(i)
		}
		return coldestUnknown
	}
	return heatBetter(m, a, b, c, d, heat)
}
