// Package trace records the runtime's activity — checkpoint and restore
// spans, flush and prefetch transfers, evictions — against the simulated
// clock, and exports the timeline in the Chrome trace-event format
// (chrome://tracing, Perfetto). One tracer serves a whole simulation:
// each GPU appears as a process row, each runtime task (application,
// T_D2H, T_H2F, T_PF, stager) as a thread row.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Track identifies the runtime task a span belongs to (rendered as a
// thread row).
type Track int

const (
	// TrackApp is the application thread (checkpoint/restore blocking).
	TrackApp Track = iota
	// TrackD2H is the GPU→host flusher.
	TrackD2H
	// TrackH2F is the host→SSD/PFS flusher.
	TrackH2F
	// TrackPF is the GPU-side prefetcher.
	TrackPF
	// TrackStage is the SSD→host stager.
	TrackStage
)

// String names the track as shown in the trace viewer.
func (t Track) String() string {
	switch t {
	case TrackApp:
		return "application"
	case TrackD2H:
		return "T_D2H flusher"
	case TrackH2F:
		return "T_H2F flusher"
	case TrackPF:
		return "T_PF prefetcher"
	case TrackStage:
		return "T_PF host stager"
	}
	return fmt.Sprintf("Track(%d)", int(t))
}

// Event is one complete span on the timeline. Flow, when non-zero,
// links the span into a causal chain: every span sharing a Flow value
// is connected by flow arrows in the Chrome export, so Perfetto draws
// one checkpoint version's journey across tracks and GPUs. Callers
// must derive Flow deterministically (the core runtime uses a pure
// function of (rank, version)) — never from a shared counter, or
// exports stop being byte-reproducible.
type Event struct {
	Name     string
	Category string
	GPU      int // process row
	Track    Track
	Start    time.Duration
	Duration time.Duration
	Flow     int64
}

// CounterEvent is one sampled counter value (rendered as a stacked area
// track in the trace viewer, alongside the span rows).
type CounterEvent struct {
	Name  string
	GPU   int // process row
	At    time.Duration
	Value float64
}

// Default retention bounds. A long chaos soak emits events forever;
// past the cap the tracer keeps the most recent window (flight-recorder
// style) and counts what it dropped instead of growing without limit.
const (
	DefaultEventCap   = 1 << 20 // spans retained per tracer
	DefaultCounterCap = 1 << 20 // counter samples retained per tracer
)

// blockLen is the number of entries in one storage block.
const blockLen = 4096

// blockRing is a bounded store of T. Entries live in fixed-size blocks,
// so an append never copies what is already stored; once limit entries
// are held the oldest is overwritten and counted in dropped.
type blockRing[T any] struct {
	blocks  [][]T // blockLen entries each, the last cut short at limit
	n       int   // entries held, ≤ limit
	next    int   // once n == limit: the oldest entry, overwritten next
	limit   int
	dropped int64
}

func (r *blockRing[T]) at(i int) *T { return &r.blocks[i/blockLen][i%blockLen] }

func (r *blockRing[T]) push(v T) {
	if r.n == r.limit {
		*r.at(r.next) = v
		r.next = (r.next + 1) % r.limit
		r.dropped++
		return
	}
	if r.n == len(r.blocks)*blockLen {
		r.blocks = append(r.blocks, make([]T, min(blockLen, r.limit-r.n)))
	}
	*r.at(r.n) = v
	r.n++
}

// snapshot copies the held entries out, oldest first.
func (r *blockRing[T]) snapshot() []T {
	out := make([]T, 0, r.n)
	for _, b := range r.blocks {
		out = append(out, b[:min(len(b), r.n-len(out))]...)
	}
	// Storage order is arrival order rotated by next.
	return append(out[r.next:], out[:r.next]...)
}

// setLimit rebounds the ring, dropping the oldest entries beyond limit.
func (r *blockRing[T]) setLimit(limit int) {
	held := r.snapshot()
	excess := max(len(held)-limit, 0)
	*r = blockRing[T]{limit: limit, dropped: r.dropped + int64(excess)}
	for _, v := range held[excess:] {
		r.push(v)
	}
}

// Tracer collects events; safe for concurrent use. A nil *Tracer is a
// valid no-op sink, so instrumented code needs no nil checks beyond the
// method receivers. Retention is bounded: once a cap is reached the
// oldest entries are overwritten and Dropped reports how many were lost.
type Tracer struct {
	now func() time.Duration

	mu       sync.Mutex
	events   blockRing[Event]
	counters blockRing[CounterEvent]

	flight *FlightRecorder // created on first use
}

// New creates a tracer reading timestamps from now (typically the
// simulation clock's Now), bounded at the default caps.
func New(now func() time.Duration) *Tracer {
	if now == nil {
		panic("trace: nil clock function")
	}
	t := &Tracer{now: now}
	t.events.limit, t.counters.limit = DefaultEventCap, DefaultCounterCap
	return t
}

// SetCapacity rebounds retention: at most events spans and counters
// samples are kept (oldest overwritten first). Values < 1 panic — a
// tracer is always bounded. Shrinking below the current backlog drops
// the oldest entries immediately.
func (t *Tracer) SetCapacity(events, counters int) {
	if t == nil {
		return
	}
	if events < 1 || counters < 1 {
		panic("trace: capacities must be >= 1")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events.setLimit(events)
	t.counters.setLimit(counters)
}

// Dropped reports how many spans and counter samples were evicted to
// stay within the retention caps. Nil-safe.
func (t *Tracer) Dropped() (events, counters int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.dropped, t.counters.dropped
}

// Span opens a span and returns its closer; call the closer when the
// operation completes. Nil-safe.
func (t *Tracer) Span(gpu int, track Track, category, name string) func() {
	return t.SpanFlow(gpu, track, category, name, 0)
}

// SpanFlow is Span with a causal flow ID: the finished span joins the
// flow chain identified by flow (0 means unlinked). Nil-safe.
func (t *Tracer) SpanFlow(gpu int, track Track, category, name string, flow int64) func() {
	if t == nil {
		return func() {}
	}
	start := t.now()
	return func() {
		end := t.now()
		t.mu.Lock()
		t.events.push(Event{
			Name: name, Category: category, GPU: gpu, Track: track,
			Start: start, Duration: end - start, Flow: flow,
		})
		t.mu.Unlock()
	}
}

// Record appends an already-completed span. The chunked transfer paths
// use it because a stream's display name (chunk count, hidden time) is
// only known at completion. Nil-safe.
func (t *Tracer) Record(gpu int, track Track, category, name string, start, duration time.Duration) {
	t.RecordFlow(gpu, track, category, name, start, duration, 0)
}

// RecordFlow is Record with a causal flow ID (see SpanFlow). Nil-safe.
func (t *Tracer) RecordFlow(gpu int, track Track, category, name string, start, duration time.Duration, flow int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events.push(Event{
		Name: name, Category: category, GPU: gpu, Track: track,
		Start: start, Duration: duration, Flow: flow,
	})
	t.mu.Unlock()
}

// Counter appends one sampled counter value (tier occupancy, link
// utilization, …) at simulated time at. Nil-safe.
func (t *Tracer) Counter(gpu int, name string, at time.Duration, value float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters.push(CounterEvent{Name: name, GPU: gpu, At: at, Value: value})
	t.mu.Unlock()
}

// Counters returns a copy of the recorded counter events sorted by time.
// Ties are broken on every remaining field, so the export does not depend
// on the order same-instant tasks appended in.
func (t *Tracer) Counters() []CounterEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.counters.snapshot()
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b CounterEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.GPU, b.GPU); c != 0 {
			return c
		}
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		// Plain <, under which a NaN ties with everything; cmp.Compare
		// would sort it first.
		switch {
		case a.Value < b.Value:
			return -1
		case b.Value < a.Value:
			return +1
		}
		return 0
	})
	return out
}

// Len returns the number of recorded events. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.n
}

// Events returns a copy of the recorded events sorted by start time.
// Ties are broken on every remaining field (see Counters).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.events.snapshot()
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Or(
			cmp.Compare(a.GPU, b.GPU),
			cmp.Compare(a.Track, b.Track),
			strings.Compare(a.Name, b.Name),
			strings.Compare(a.Category, b.Category),
			cmp.Compare(a.Duration, b.Duration),
			cmp.Compare(a.Flow, b.Flow),
		)
	})
	return out
}
