// Time-series sampling: a simclock-driven sampler polls registered gauge
// probes (link utilization, copy-engine occupancy, cache occupancy, …) at
// a fixed cadence into fixed-capacity ring buffers, so long soaks record
// bounded, recent-biased timelines instead of unbounded slices.
package metrics

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"score/internal/simclock"
)

// Sample is one (simulated time, value) point of a sampled series.
type Sample struct {
	At    time.Duration `json:"at"`
	Value float64       `json:"value"`
}

// Series is a fixed-capacity ring buffer of samples. The zero value is not
// usable; the Sampler allocates them.
type Series struct {
	ring []Sample
	head int // next write position
	n    int // number of valid samples
}

func newSeries(capacity int) *Series { return &Series{ring: make([]Sample, capacity)} }

func (s *Series) add(p Sample) {
	s.ring[s.head] = p
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
}

// Samples returns the retained points in chronological order.
func (s *Series) Samples() []Sample {
	out := make([]Sample, 0, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}

// DefaultSampleInterval is the sampler cadence used when none is given:
// fine enough to resolve individual flush/prefetch phases at the simulated
// bandwidths the experiments use, coarse enough to stay cheap.
const DefaultSampleInterval = 100 * time.Microsecond

// DefaultSeriesCapacity bounds each series' ring buffer.
const DefaultSeriesCapacity = 4096

// Sampler polls registered probes on a simulated-time cadence. Start and
// Stop must be called from tasks of its clock (Start launches a
// clock-managed task), and Stop before the root task finishes, otherwise
// the virtual clock would keep advancing on the sampler's timer alone.
// One task runs at a time, so Stop's final sample never overlaps a tick.
type Sampler struct {
	clk      simclock.Clock
	interval time.Duration
	capacity int

	mu      sync.Mutex
	cond    simclock.Cond
	probes  []probe
	sorted  bool      // probes is in name order
	vals    []float64 // one sample's polled values, in probe order
	series  map[string]*Series
	sink    func(name string, at time.Duration, v float64)
	running bool
	stopped bool
}

type probe struct {
	name   string
	fn     func() float64
	series *Series
}

// NewSampler returns a sampler on clk. Non-positive interval or capacity
// select the defaults.
func NewSampler(clk simclock.Clock, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	s := &Sampler{clk: clk, interval: interval, capacity: capacity, series: map[string]*Series{}}
	s.cond = clk.NewCond(&s.mu)
	return s
}

// Register adds a named gauge probe. fn is called on the sampler task at
// every tick; it must not block on simulated time.
func (s *Sampler) Register(name string, fn func() float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.series[name] == nil {
		s.series[name] = newSeries(s.capacity)
	}
	s.probes = append(s.probes, probe{name: name, fn: fn, series: s.series[name]})
	s.sorted = false
}

// SetCounterSink forwards every sample to fn as well (used to mirror the
// series into Chrome-trace counter events without a trace dependency).
func (s *Sampler) SetCounterSink(fn func(name string, at time.Duration, v float64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = fn
}

// Start launches the sampling task on the clock. It may be called at most
// once; Stop must be called before the simulation's root task returns.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.running || s.stopped {
		s.mu.Unlock()
		return
	}
	s.running = true
	s.mu.Unlock()
	s.clk.Go(s.loop)
}

func (s *Sampler) loop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopped {
		// WaitTimeout rather than Sleep: Stop can interrupt the wait, so a
		// stopped sampler never holds a pending timer that would keep the
		// virtual clock advancing after the workload finished.
		s.cond.WaitTimeout(s.interval)
		if s.stopped {
			return
		}
		s.sampleLocked()
	}
}

// sampleLocked polls every probe once, then records the values, then
// hands them to the sink. Probes and the sink are caller code, so s.mu is
// released around them. The tick and Stop's final sample both run on
// tasks, and one task runs at a time, so no two samples overlap and
// s.vals needs no more protection than that.
func (s *Sampler) sampleLocked() {
	at := s.clk.Now()
	if !s.sorted {
		// Poll in name order, so that a tick's samples reach the sink in
		// the order a trace export sorts them into.
		slices.SortStableFunc(s.probes, func(a, b probe) int { return strings.Compare(a.name, b.name) })
		s.sorted = true
	}
	probes, sink := s.probes, s.sink
	s.vals = slices.Grow(s.vals[:0], len(probes))[:len(probes)]
	vals := s.vals
	s.mu.Unlock()
	for i, p := range probes {
		vals[i] = p.fn()
	}
	s.mu.Lock()
	for i, p := range probes {
		p.series.add(Sample{At: at, Value: vals[i]})
	}
	if sink != nil {
		s.mu.Unlock()
		for i, p := range probes {
			sink(p.name, at, vals[i])
		}
		s.mu.Lock()
	}
}

// Stop halts the sampling task after taking one final sample, so the
// series always reflect the end state. Safe to call multiple times.
func (s *Sampler) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	if s.running {
		s.sampleLocked()
	}
	s.stopped = true
	s.cond.Broadcast()
}

// Interval returns the sampling cadence.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Series returns the sampled timelines, name → chronological samples.
func (s *Sampler) Series() map[string][]Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]Sample, len(s.series))
	for name, ser := range s.series {
		out[name] = ser.Samples()
	}
	return out
}

// SeriesNames returns the registered series names, sorted.
func (s *Sampler) SeriesNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.series))
	for name := range s.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
