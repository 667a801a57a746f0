// Package trace records the runtime's activity — checkpoint and restore
// spans, flush and prefetch transfers, evictions — against the simulated
// clock, and exports the timeline in the Chrome trace-event format
// (chrome://tracing, Perfetto). One tracer serves a whole simulation:
// each GPU appears as a process row, each runtime task (application,
// T_D2H, T_H2F, T_PF, stager) as a thread row.
package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Track identifies the runtime task a span belongs to (rendered as a
// thread row).
type Track int8

const (
	TrackApp   Track = iota // the application thread (checkpoint/restore blocking)
	TrackD2H                // the GPU→host flusher
	TrackH2F                // the host→SSD/PFS flusher
	TrackPF                 // the GPU-side prefetcher
	TrackStage              // the SSD→host stager
)

var trackNames = [...]string{
	TrackApp: "application", TrackD2H: "T_D2H flusher", TrackH2F: "T_H2F flusher",
	TrackPF: "T_PF prefetcher", TrackStage: "T_PF host stager",
}

// String names the track as shown in the trace viewer.
func (t Track) String() string {
	if t >= 0 && int(t) < len(trackNames) {
		return trackNames[t]
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

// span is how the ring stores an Event: 72 bytes, the GPU and track
// narrowed to pay for the version. A versioned span's name is formatted only when it
// is read: the decimal version spliced in after the name's first word,
// so "flush gpu→host" at version 12 reads "flush 12 gpu→host" and
// recording it builds no string.
type span struct {
	name, category  string
	start, duration time.Duration
	flow, version   int64
	gpu             int32
	track           Track
	versioned       bool
}

// appendName appends the span's name as Events and the export show it.
func (s *span) appendName(b []byte) []byte {
	if !s.versioned {
		return append(b, s.name...)
	}
	return appendVersioned(b, s.name, s.version)
}

// appendVersioned appends name with the decimal version spliced in after
// its first word, before the first space or at the end.
func appendVersioned[S ~string | ~[]byte](b []byte, name S, version int64) []byte {
	i := 0
	for i < len(name) && name[i] != ' ' {
		i++
	}
	b = strconv.AppendInt(append(append(b, name[:i]...), ' '), version, 10)
	return append(b, name[i:]...)
}

// compareNames orders two spans as their names compare. Only a versioned
// name is formatted, into a stack buffer (a name past 64 bytes spills to
// the heap); the sort calls this only on a Start, GPU and Track tie.
func compareNames(a, b *span) int {
	if !a.versioned && !b.versioned {
		return strings.Compare(a.name, b.name)
	}
	var ba, bb [64]byte
	return bytes.Compare(a.appendName(ba[:0]), b.appendName(bb[:0]))
}

// CounterSource is the store the counter tracks are read from — the
// metrics sampler, the one store of sampled gauges. The tracer sets its
// window (the newest n samples by arrival, older ones counted dropped);
// EachCounter hands out the window ordered by time, then name, then
// value (-0 before +0), equal ids meaning equal names, and fn must not
// call the source.
type CounterSource interface {
	SetCounterWindow(n int)
	CounterDropped() int64
	EachCounter(fn func(id int, name string, at time.Duration, v float64))
}

// Default retention bounds. A long chaos soak emits events forever;
// past the cap the tracer keeps the most recent window (flight-recorder
// style) and counts what it dropped instead of growing without limit.
const (
	DefaultEventCap   = 1 << 20 // spans retained per tracer
	DefaultCounterCap = 1 << 20 // counter samples shown per tracer
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

// nth returns the i-th oldest held entry. Storage order is arrival
// order rotated by next.
func (r *blockRing[T]) nth(i int) *T {
	if i += r.next; i >= r.n {
		i -= r.n
	}
	return r.at(i)
}

// setLimit rebounds the ring, dropping the oldest entries beyond limit.
func (r *blockRing[T]) setLimit(limit int) {
	held := make([]T, r.n)
	for i := range held {
		held[i] = *r.nth(i)
	}
	excess := max(len(held)-limit, 0)
	*r = blockRing[T]{limit: limit, dropped: r.dropped + int64(excess)}
	for _, v := range held[excess:] {
		r.push(v)
	}
}

// Tracer collects events from the tasks of one clock, which runs one at a
// time, so it takes no lock; read it from those tasks or after the run. A
// nil *Tracer is a valid no-op sink, so instrumented code needs no nil
// checks beyond the method receivers. Retention is bounded: once a cap is reached the
// oldest entries are overwritten and Dropped reports how many were lost.
type Tracer struct {
	now func() time.Duration

	events     blockRing[span]
	counterCap int
	counters   CounterSource // nil until SetCounterSource

	flight *FlightRecorder // created on first use
}

// New creates a tracer reading timestamps from now (typically the
// simulation clock's Now), bounded at the default caps.
func New(now func() time.Duration) *Tracer {
	if now == nil {
		panic("trace: nil clock function")
	}
	t := &Tracer{now: now, counterCap: DefaultCounterCap}
	t.events.limit = DefaultEventCap
	return t
}

// SetCounterSource attaches the store the counter tracks are read from,
// bounded at the counter capacity from then on. Nil-safe.
func (t *Tracer) SetCounterSource(src CounterSource) {
	if t == nil {
		return
	}
	t.counters = src
	src.SetCounterWindow(t.counterCap)
}

// SetCapacity rebounds retention: at most events spans are kept (oldest
// overwritten first) and counters samples shown. Values < 1 panic — a
// tracer is always bounded. Shrinking below the current backlog drops
// the oldest entries immediately.
func (t *Tracer) SetCapacity(events, counters int) {
	if t == nil {
		return
	}
	if events < 1 || counters < 1 {
		panic("trace: capacities must be >= 1")
	}
	t.events.setLimit(events)
	t.counterCap = counters
	if t.counters != nil {
		t.counters.SetCounterWindow(counters)
	}
}

// Dropped reports how many spans were evicted and counter samples fell
// out of the source's window to stay within the caps. Nil-safe.
func (t *Tracer) Dropped() (events, counters int64) {
	if t == nil {
		return 0, 0
	}
	if t.counters != nil {
		counters = t.counters.CounterDropped()
	}
	return t.events.dropped, counters
}

// Span opens a span and returns its closer; call the closer when the
// operation completes. Nil-safe.
func (t *Tracer) Span(gpu int, track Track, category, name string) func() {
	if t == nil {
		return func() {}
	}
	return OpenSpan{t, span{name: name, category: category, gpu: int32(gpu), track: track, start: t.now()}}.End
}

// OpenSpan is a span SpanFlow opened and End closes. It is a value, so
// `defer tr.SpanFlow(...).End()` allocates nothing.
type OpenSpan struct {
	t *Tracer
	s span // all but duration
}

// SpanFlow opens the span of one checkpoint version with a causal flow
// ID: once End closes it, the span joins the flow chain identified by
// flow (0 means unlinked). Its name is name with the decimal version
// spliced in after the first word ("flush gpu→host" at 12 reads
// "flush 12 gpu→host"), formatted only when the span is read, so name is
// best a constant. Nil-safe: a nil tracer's span ends without recording.
func (t *Tracer) SpanFlow(gpu int, track Track, category, name string, version, flow int64) OpenSpan {
	if t == nil {
		return OpenSpan{}
	}
	return OpenSpan{t, span{name: name, category: category, gpu: int32(gpu), track: track, start: t.now(),
		flow: flow, version: version, versioned: true}}
}

// End records the span, from SpanFlow's instant to now.
func (s OpenSpan) End() {
	if s.t != nil {
		s.s.duration = s.t.now() - s.s.start
		s.t.events.push(s.s)
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
	t.events.push(span{name: name, category: category, gpu: int32(gpu), track: track, start: start, duration: duration, flow: flow})
}

// Len returns the number of recorded events. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.events.n
}

// Events returns a copy of the recorded events sorted by start time.
// Ties are broken on every remaining field, so the order does not depend
// on the order same-instant tasks recorded in.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	order := t.order()
	out := make([]Event, len(order))
	for i, at := range order {
		s := t.events.at(int(at))
		out[i] = Event{Name: s.name, Category: s.category, GPU: int(s.gpu), Track: s.track,
			Start: s.start, Duration: s.duration, Flow: s.flow}
		if s.versioned {
			out[i].Name = string(s.appendName(nil))
		}
	}
	return out
}

// order returns the spans' storage positions in Events order.
func (t *Tracer) order() []int32 {
	order := make([]int32, t.events.n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := t.events.at(int(i)), t.events.at(int(j))
		if c := cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.gpu, b.gpu), cmp.Compare(a.track, b.track)); c != 0 {
			return c
		}
		return cmp.Or(compareNames(a, b), strings.Compare(a.category, b.category),
			cmp.Compare(a.duration, b.duration), cmp.Compare(a.flow, b.flow))
	})
	return order
}
