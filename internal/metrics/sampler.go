// Time-series sampling: a simclock-driven sampler polls registered gauge
// probes (link utilization, copy-engine occupancy, cache occupancy, …) at
// a fixed cadence into blocks of ticks, a time per tick and a column per
// probe, freeing the oldest once no window reads it: bounded,
// recent-biased timelines, each sample stored once.
package metrics

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"score/internal/simclock"
)

// Sample is one (simulated time, value) point of a sampled series.
type Sample struct {
	At    time.Duration `json:"at"`
	Value float64       `json:"value"`
}

// DefaultSampleInterval is the sampler cadence used when none is given:
// fine enough to resolve individual flush/prefetch phases at the simulated
// bandwidths the experiments use, coarse enough to stay cheap.
const DefaultSampleInterval = 100 * time.Microsecond

// DefaultSeriesCapacity is the samples each series keeps.
const DefaultSeriesCapacity = 4096

// tickBlockLen is the ticks one storage block holds.
const tickBlockLen = 1024

// block holds tickBlockLen ticks: their instants and the probes' values
// (one slab for those polled first).
type block struct {
	at   []time.Duration
	vals [][]float64 // by probe id; nil for a probe the block never polled
}

// Sampler polls registered probes on a simulated-time cadence. Start and
// Stop must be called from tasks of its clock (Start launches a
// clock-managed task), and Stop before the root task finishes, otherwise
// the virtual clock would keep advancing on the sampler's timer alone.
// Only the tasks of that clock use it; one runs at a time, so it takes no
// lock, and Stop's final sample never overlaps a tick.
//
// Two windows read the store: Series each series' last capacity samples
// (within the last capacity ticks) and EachCounter, once a trace export
// sets it, the last window samples by arrival (tick by tick, in name
// order within a tick).
type Sampler struct {
	clk      *simclock.Virtual
	interval time.Duration
	capacity int

	cond    simclock.Cond
	probes  []probe
	sorted  bool      // probes is in name order, equal names in registration order
	vals    []float64 // one sample's polled values, in probe order
	blocks  []block   // blocks[0] holds tick base*tickBlockLen on
	base    int       // blocks freed
	n       int       // ticks taken
	taken   int64     // samples taken
	window  int       // counter window; 0 until a trace export sets it
	from    int64     // its oldest sample, by arrival
	dropped int64     // samples that fell out of it
	scratch []counter // one instant's samples, for EachCounter
	running bool
	stopped bool
}

type probe struct {
	name string
	fn   func() float64
	id   int // registration order: its column in every block
	from int // the first tick that polled it
}

// NewSampler returns a sampler on clk. Non-positive interval or capacity
// select the defaults.
func NewSampler(clk *simclock.Virtual, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Sampler{clk: clk, interval: interval, capacity: capacity, cond: clk.NewCond(nil)}
}

// Register adds a named gauge probe; probes may share a name, and then a
// series. fn is called on the sampler task at every tick; it must not
// block on simulated time nor register probes.
func (s *Sampler) Register(name string, fn func() float64) {
	s.probes = append(s.probes, probe{name: name, fn: fn, id: len(s.probes), from: math.MaxInt})
	s.sorted = false
}

// sort puts the probes in name order. The sort is stable and probes
// are only appended, so the ones a past tick polled keep its order.
func (s *Sampler) sort() {
	if !s.sorted {
		slices.SortStableFunc(s.probes, func(a, b probe) int { return strings.Compare(a.name, b.name) })
		s.sorted = true
	}
}

// Start launches the sampling task on the clock. It may be called at most
// once; Stop must be called before the simulation's root task returns.
func (s *Sampler) Start() {
	if s.running || s.stopped {
		return
	}
	s.running = true
	s.clk.Go(s.loop)
}

func (s *Sampler) loop() {
	for !s.stopped {
		// WaitTimeout rather than Sleep: Stop can interrupt the wait, so a
		// stopped sampler never holds a pending timer that would keep the
		// virtual clock advancing after the workload finished.
		s.cond.WaitTimeout(s.interval)
		if s.stopped {
			return
		}
		s.sample()
	}
}

// sample polls every probe once, in name order, and stores the values as
// the next tick. Probes do not block, so a tick runs from start to end in
// one task and never overlaps Stop's final sample.
func (s *Sampler) sample() {
	at := s.clk.Now()
	s.sort()
	s.vals = slices.Grow(s.vals[:0], len(s.probes))[:len(s.probes)]
	vals := s.vals
	for i, p := range s.probes {
		vals[i] = p.fn()
	}
	b, i := s.n/tickBlockLen-s.base, s.n%tickBlockLen
	if b == len(s.blocks) {
		blk := block{at: make([]time.Duration, tickBlockLen), vals: make([][]float64, len(vals))}
		slab := make([]float64, tickBlockLen*len(vals))
		for id := range blk.vals {
			blk.vals[id] = slab[id*tickBlockLen : (id+1)*tickBlockLen]
		}
		s.blocks = append(s.blocks, blk)
	}
	blk := &s.blocks[b]
	for k, v := range vals {
		p := &s.probes[k]
		p.from = min(p.from, s.n)
		if p.id >= len(blk.vals) {
			blk.vals = append(blk.vals, make([][]float64, p.id+1-len(blk.vals))...)
		}
		if blk.vals[p.id] == nil {
			blk.vals[p.id] = make([]float64, tickBlockLen)
		}
		blk.vals[p.id][i] = v
	}
	blk.at[i] = at
	s.n++
	s.taken += int64(len(vals))
	s.cut()
}

// cut moves the counter window up to the newest samples, counting
// what falls out, and frees the oldest blocks neither window reads.
func (s *Sampler) cut() {
	if excess := s.taken - s.from - int64(s.window); s.window > 0 && excess > 0 {
		s.from += excess
		s.dropped += excess
	}
	for len(s.blocks) > 1 && (s.base+1)*tickBlockLen <= s.n-s.capacity &&
		(s.window == 0 || s.arrivals((s.base+1)*tickBlockLen) <= s.from) {
		s.blocks = slices.Delete(s.blocks, 0, 1)
		s.base++
	}
}

// arrivals returns the samples taken before tick t: every probe is
// polled at every tick from its first on.
func (s *Sampler) arrivals(t int) (n int64) {
	for _, p := range s.probes {
		n += int64(max(t-p.from, 0))
	}
	return n
}

// Stop halts the sampling task after taking one final sample, so the
// series always reflect the end state. Safe to call multiple times.
func (s *Sampler) Stop() {
	if s.stopped {
		return
	}
	if s.running {
		s.sample()
	}
	s.stopped = true
	s.cond.Broadcast()
}

// tick returns the block and index of stored tick t.
func (s *Sampler) tick(t int) (*block, int) {
	return &s.blocks[t/tickBlockLen-s.base], t % tickBlockLen
}

// Interval returns the sampling cadence.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Series returns the sampled timelines, name → chronological samples:
// each series' last capacity samples, a tick's in registration order.
func (s *Sampler) Series() map[string][]Sample {
	s.sort()
	out := make(map[string][]Sample, len(s.probes))
	start := max(s.n-s.capacity, s.base*tickBlockLen)
	for i, j := 0, 0; i < len(s.probes); i = j {
		for j = i + 1; j < len(s.probes) && s.probes[j].name == s.probes[i].name; j++ {
		}
		pts := make([]Sample, 0, (s.n-start)*(j-i))
		for t := start; t < s.n; t++ {
			blk, x := s.tick(t)
			for _, p := range s.probes[i:j] {
				if p.from <= t {
					pts = append(pts, Sample{At: blk.at[x], Value: blk.vals[p.id][x]})
				}
			}
		}
		out[s.probes[i].name] = pts[max(len(pts)-s.capacity, 0):]
	}
	return out
}

// SetCounterWindow bounds the samples EachCounter shows to the newest n
// by arrival (n ≥ 1), counting older ones as dropped; it implements
// trace.CounterSource. The window starts at the first call.
func (s *Sampler) SetCounterWindow(n int) {
	if s.window == 0 {
		s.from = s.taken
	}
	s.window = n
	s.cut()
}

// CounterDropped reports how many samples fell out of the counter window.
func (s *Sampler) CounterDropped() int64 {
	return s.dropped
}

// counter is one sample of an instant, as EachCounter orders them.
type counter struct {
	probe int // index in s.probes
	v     float64
}

// EachCounter calls fn on every sample in the counter window in export
// order: by time, then name, then value, -0 before +0 (a NaN ties with
// every value). An instant's samples are ordered together, so a final
// sample at a tick's instant merges into it. Equal ids mean equal names
// within one call. fn must not call the sampler.
func (s *Sampler) EachCounter(fn func(id int, name string, at time.Duration, v float64)) {
	if s.window == 0 {
		return
	}
	s.sort()
	distinct := true // no two probes share a name, so a lone tick is in order
	for k := 1; k < len(s.probes); k++ {
		distinct = distinct && s.probes[k].name != s.probes[k-1].name
	}
	// Start at the last tick that begins at or before the window.
	first := s.base * tickBlockLen
	t := max(first+sort.Search(s.n-first, func(k int) bool { return s.arrivals(first+k) > s.from })-1, first)
	arrival := s.arrivals(t)
	for t < s.n {
		blk, i := s.tick(t)
		at, buf, ticks := blk.at[i], s.scratch[:0], 0
		for ; t < s.n && blk.at[i] == at; ticks++ {
			for k, p := range s.probes {
				if p.from <= t {
					if arrival >= s.from {
						buf = append(buf, counter{k, blk.vals[p.id][i]})
					}
					arrival++
				}
			}
			if t++; t < s.n {
				blk, i = s.tick(t)
			}
		}
		if ticks > 1 || !distinct {
			slices.SortFunc(buf, s.compareCounters)
		}
		for _, c := range buf {
			fn(c.probe, s.probes[c.probe].name, at, c.v)
		}
		s.scratch = buf
	}
}

// compareCounters orders one instant's samples by name, then value.
// Values compare with plain <, under which a NaN ties with everything.
func (s *Sampler) compareCounters(a, b counter) int {
	if c := strings.Compare(s.probes[a.probe].name, s.probes[b.probe].name); c != 0 {
		return c
	}
	switch {
	case a.v < b.v:
		return -1
	case b.v < a.v:
		return +1
	case a.v == 0 && b.v == 0:
		// -0 first: the one pair of equal values the export prints apart.
		return cmp.Compare(math.Float64bits(b.v), math.Float64bits(a.v))
	}
	return 0
}
