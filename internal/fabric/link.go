// Package fabric simulates the interconnects of a GPU compute node: the
// per-GPU device-to-device paths (HBM/NVSwitch), the PCIe links to host
// memory (shared by pairs of GPUs on a DGX-A100), the node-local NVMe
// drives, and the globally shared parallel file system.
//
// Each Link divides its bandwidth among all in-flight transfers using
// max-min fair sharing, re-evaluated whenever a transfer starts or
// finishes. This is the property that makes the paper's evaluation
// meaningful in simulation: asynchronous flushes and prefetches that
// overlap on a shared link slow each other down exactly as they would on
// real hardware.
//
// All timing flows through a simclock.Clock, so the fabric runs
// deterministically under the virtual clock. The fabric starts no task of
// its own: a transfer's latency, its completion timer and its reaping are
// the transfer record's simclock.Event, and a pipelined stream's
// downstream hops are events too, so the caller's task is resumed only
// when its transfer, or its stream's chunk on the first hop, is done.
package fabric

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"score/internal/simclock"
)

// GB is one gigabyte in bytes, the natural unit for link bandwidths.
const GB = 1 << 30

// FaultDecision is an interceptor's verdict for one transfer. The zero
// value lets the transfer proceed untouched.
type FaultDecision struct {
	// Err fails the transfer after latency and Delay are charged; no
	// bytes move.
	Err error
	// Delay is extra latency charged before the transfer (or failure).
	Delay time.Duration
	// BandwidthScale, when in (0,1), degrades this transfer's effective
	// bandwidth — the link behaves as if the payload were 1/scale times
	// larger, which also loads concurrent transfers realistically.
	BandwidthScale float64
}

// A TransferInterceptor is consulted once per transfer with the link name
// and payload size. It exists for fault injection; production paths leave
// it nil and pay no cost beyond a nil check.
type TransferInterceptor func(link string, size int64) FaultDecision

// A Link is a shared communication resource with a fixed total bandwidth
// (bytes per simulated second) and a fixed per-transfer latency. Bandwidth
// is divided evenly among concurrent transfers (max-min fair share).
//
// Progress accounting is incremental: shares change only when membership
// changes, so the link settles (credits elapsed time to every active
// transfer) exactly at joins, completions, and pacer timer fires — the
// same instants the original rescan-on-every-wake implementation
// effectively settled at, which keeps simulated timings bit-identical.
// Only the transfer whose completion is next (the "pacer") holds a timer,
// and a membership change moves that timer in place (Event.Retime) rather
// than running anyone. Each transfer is an event: its latency, its
// completion timer and the reaper's signal all run it, and its owner is
// resumed once, when the transfer completes or fails.
type Link struct {
	clk     simclock.Clock
	name    string
	bw      float64 // bytes per simulated second
	latency time.Duration

	mu sync.Mutex
	// active is a binary min-heap on (remaining, seq): the top is the next
	// completion. Settles subtract the same credit from every member, which
	// preserves pairwise order — except among transfers clamped to zero,
	// which are all due and reaped together, so their ties never matter.
	active     []*transfer
	pacer      *transfer // heap top at last election: holds the only timer
	lastSettle time.Duration
	seq        uint64    // join tie-break for pacer election
	free       *transfer // pooled transfer records with their events

	interceptor atomic.Pointer[TransferInterceptor]

	// inFlight mirrors len(active), written under mu. Estimate reads it
	// once per fragment on every eviction scan and score-summary tick,
	// where taking mu instead cost observed_rtm 5-12 % of its wall time.
	inFlight atomic.Int64

	// Statistics, under mu.
	totalBytes     int64
	totalTransfers int64
	peakConcurrent int
	busy           time.Duration // simulated time with >=1 active transfer, up to lastSettle
}

// transfer is one payload from the moment its owner asks for it until the
// owner collects the result. Records are pooled per link.
//
// The record is its own event, and everything that used to resume the
// owner runs it instead, in the same slot: the end of the latency (the
// join: settle, push, reap, elect), the end of an injected delay, the
// pacer's completion timer, and the signal of the member that reaps it.
// When the transfer is done the event hands over to the owner: a task
// parked in ev.Await is resumed right there, and a pipeline hop carries on
// from the event itself.
type transfer struct {
	remaining float64 // bytes left to move; before the join, the bytes to move
	seq       uint64
	joined    bool // past the latency and delay
	done      bool
	failed    bool      // done without joining: the interceptor failed it
	next      *transfer // freelist

	link  *Link
	ev    simclock.Event
	size  int64
	delay time.Duration // injected delay still to charge after the latency
	hop   *hop          // the owner when a pipeline hop; nil for a task
}

// NewLink creates a link named name with the given bandwidth in bytes per
// simulated second and fixed per-transfer latency.
func NewLink(clk simclock.Clock, name string, bandwidth float64, latency time.Duration) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("fabric: link %q: bandwidth must be positive, got %v", name, bandwidth))
	}
	return &Link{
		clk:     clk,
		name:    name,
		bw:      bandwidth,
		latency: latency,
	}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link's total bandwidth in bytes per simulated
// second.
func (l *Link) Bandwidth() float64 { return l.bw }

// SetInterceptor installs (or, with nil, removes) the fault-injection
// interceptor consulted by every subsequent transfer.
func (l *Link) SetInterceptor(f TransferInterceptor) {
	l.interceptor.Store(&f)
}

// TryTransfer moves size bytes across the link, blocking the calling task
// for the simulated duration, which depends on concurrent load. It returns
// the simulated time the transfer took (including latency). Transfers of
// non-positive size complete immediately. An installed interceptor can
// fail the transfer: TryTransfer then returns the simulated time consumed
// (latency plus any injected delay) and a non-nil error, and no bytes move.
//
// The task is resumed once, when the transfer completes or fails: until
// then the transfer's event runs in its place.
func (l *Link) TryTransfer(size int64) (time.Duration, error) {
	if size <= 0 {
		return 0, nil
	}
	start := l.clk.Now()
	t, ferr := l.begin(size, nil)
	if !t.done {
		t.ev.Await()
	}
	l.mu.Lock()
	err := l.finishLocked(t, ferr)
	l.mu.Unlock()
	return l.clk.Now() - start, err
}

// begin starts a transfer of size bytes for an owner that is running: hp,
// or the calling task when hp is nil. It consults the interceptor, then
// arms the transfer's event for the end of the latency (or of the injected
// delay, on a link without latency) or, when neither applies, joins at
// once and arms it for the transfer's completion if it is the pacer. The
// owner waits for the event to hand over unless t.done: a failure with
// nothing to charge is immediate. The interceptor's error is returned for
// finishLocked, which reports it if the transfer failed.
func (l *Link) begin(size int64, hp *hop) (*transfer, error) {
	var fd FaultDecision
	if p := l.interceptor.Load(); p != nil && *p != nil {
		fd = (*p)(l.name, size)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.getTransferLocked()
	t.size, t.delay, t.failed, t.hop = size, fd.Delay, fd.Err != nil, hp
	t.remaining = float64(size)
	if fd.BandwidthScale > 0 && fd.BandwidthScale < 1 {
		// Degraded bandwidth: moving the bytes takes 1/scale as long, and
		// the extra occupancy slows sharers exactly as real contention
		// would.
		t.remaining /= fd.BandwidthScale
	}
	switch {
	case l.latency > 0:
		t.ev.Arm(l.latency)
	case t.delay > 0:
		t.ev.Arm(t.delay)
		t.delay = 0
	default:
		if wait := l.joinLocked(t); !t.done {
			t.ev.Arm(wait)
		}
	}
	return t, fd.Err
}

// Run is the transfer's event. It charges the injected delay when the
// latency has passed, then joins; once a member, it paces the transfer
// when its own completion timer fired. While the transfer is not done it
// waits again; when it is, the owner takes over in this slot.
func (t *transfer) Run() {
	l := t.link
	l.mu.Lock()
	var wait time.Duration
	switch {
	case !t.joined && t.delay > 0:
		wait, t.delay = t.delay, 0
	case !t.joined:
		wait = l.joinLocked(t)
	case !t.done:
		wait = l.paceLocked(t) // our own timer fired: our completion is the event
	}
	if !t.done {
		t.ev.Arm(wait)
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	if t.hop != nil {
		t.hop.collect(t)
	} else {
		t.ev.Resume()
	}
}

// joinLocked makes t a member of the link, or fails it, for an owner or an
// event that is running on its behalf; see electLocked, whose result it
// returns.
func (l *Link) joinLocked(t *transfer) time.Duration {
	t.joined = true
	if t.failed {
		t.done = true
		return -1
	}
	l.settleLocked()
	t.seq = l.seq
	l.seq++
	l.heapPush(t)
	l.inFlight.Store(int64(len(l.active)))
	l.peakConcurrent = max(l.peakConcurrent, len(l.active))
	l.totalBytes += t.size
	l.totalTransfers++
	// The settle above may have finished transfers due exactly now; they
	// leave (and the share they stop consuming is released) before the
	// new fair share is computed, as the broadcast chain used to arrange.
	l.reapLocked(t)
	return l.electLocked(t)
}

// paceLocked is the step of a member whose own completion timer fired: it
// settles, reaps (itself, normally) and elects the next pacer. It returns
// how long t still waits when it is not yet done and is still the pacer.
func (l *Link) paceLocked(t *transfer) time.Duration {
	l.settleLocked()
	l.reapLocked(t)
	return l.electLocked(t)
}

// finishLocked recycles a finished transfer's record and returns its
// error: ferr, begin's interceptor error, when the transfer failed.
func (l *Link) finishLocked(t *transfer, ferr error) error {
	var err error
	if t.failed {
		err = fmt.Errorf("fabric: link %q: %w", l.name, ferr)
	}
	t.hop = nil
	t.next = l.free
	l.free = t
	return err
}

func (l *Link) getTransferLocked() *transfer {
	t := l.free
	if t != nil {
		l.free = t.next
		t.next = nil
	} else {
		t = &transfer{link: l}
		l.clk.InitEvent(&t.ev, t)
	}
	t.joined, t.done = false, false
	return t
}

// transferLess orders the completion heap: least remaining first, ties to
// the earliest joiner.
func transferLess(a, b *transfer) bool {
	return a.remaining < b.remaining || (a.remaining == b.remaining && a.seq < b.seq)
}

func (l *Link) heapPush(t *transfer) {
	l.active = append(l.active, t)
	i := len(l.active) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !transferLess(l.active[i], l.active[p]) {
			break
		}
		l.active[i], l.active[p] = l.active[p], l.active[i]
		i = p
	}
}

// heapPopTop removes the minimum element.
func (l *Link) heapPopTop() {
	n := len(l.active) - 1
	l.active[0] = l.active[n]
	l.active[n] = nil
	l.active = l.active[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && transferLess(l.active[c+1], l.active[c]) {
			c++
		}
		if !transferLess(l.active[c], l.active[i]) {
			break
		}
		l.active[i], l.active[c] = l.active[c], l.active[i]
		i = c
	}
}

// reapLocked removes every transfer whose payload is spent — necessarily a
// prefix of the completion heap — and signals each one's event, which
// hands over to its owner. self, whose event or owner is running, needs no
// signal: it rechecks done next.
func (l *Link) reapLocked(self *transfer) {
	for len(l.active) > 0 && l.active[0].remaining <= 0.5 { // sub-byte residue counts as done
		t := l.active[0]
		l.heapPopTop()
		t.done = true
		if t != self {
			t.ev.Signal()
		}
	}
	l.inFlight.Store(int64(len(l.active)))
}

// electLocked re-reads the pacer — the completion-heap top — after a
// membership change, which also changes the share. The pacer's timer is
// due at its completion at the new share; a demoted pacer's timer is
// cleared so it never fires a settle at a wrong instant. Both events are
// parked, and Retime moves their timers without running them. self's event
// (or owner) is running, not parked: electLocked returns how long self
// waits for its own completion when it is the pacer, and -1 otherwise.
func (l *Link) electLocked(self *transfer) time.Duration {
	var best *transfer
	if len(l.active) > 0 {
		best = l.active[0]
	}
	old := l.pacer
	l.pacer = best
	if old != nil && old != best && old != self && !old.done {
		old.ev.Retime(-1)
	}
	if best == nil {
		return -1
	}
	d := durationFor(best.remaining, l.bw/float64(len(l.active)))
	if best == self {
		return d
	}
	best.ev.Retime(d)
	return -1
}

// Estimate predicts how long transferring size bytes would take if it
// started now, given the current load (assuming load stays constant). It
// is used by the eviction policy's predict_evictable estimator.
func (l *Link) Estimate(size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	return l.latency + durationFor(float64(size), l.bw/float64(l.InFlight()+1))
}

// InFlight returns the number of transfers currently using the link.
func (l *Link) InFlight() int {
	return int(l.inFlight.Load())
}

// Stats reports cumulative transfer statistics.
func (l *Link) Stats() (bytes, transfers int64, peakConcurrent int) {
	s := l.StatsSnapshot()
	return s.Bytes, s.Transfers, s.PeakConcurrent
}

// BusyTime returns the cumulative simulated time during which the link had
// at least one transfer in flight. The observability sampler differences
// successive readings to compute per-interval utilization.
func (l *Link) BusyTime() time.Duration {
	return l.StatsSnapshot().Busy
}

// LinkStats is a coherent view of a link's counters.
type LinkStats struct {
	Bytes          int64
	Transfers      int64
	PeakConcurrent int
	InFlight       int
	Busy           time.Duration // includes the in-progress busy interval
}

// StatsSnapshot reads the link's statistics under its lock. The busy
// figure extends through now when the link is active.
func (l *Link) StatsSnapshot() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	busy := l.busy
	if len(l.active) > 0 {
		busy += max(l.clk.Now()-l.lastSettle, 0)
	}
	return LinkStats{
		Bytes:          l.totalBytes,
		Transfers:      l.totalTransfers,
		PeakConcurrent: l.peakConcurrent,
		InFlight:       len(l.active),
		Busy:           busy,
	}
}

// settleLocked credits progress to every active transfer for the simulated
// time elapsed since the last settlement, at the fair share that was in
// effect over that interval. Must be called with l.mu held, and before
// every membership change.
func (l *Link) settleLocked() {
	now := l.clk.Now()
	elapsed := now - l.lastSettle
	if elapsed <= 0 {
		return // same-instant settle: nothing moved
	}
	l.lastSettle = now
	if len(l.active) == 0 {
		return
	}
	l.busy += elapsed
	share := l.bw / float64(len(l.active))
	credit := share * elapsed.Seconds()
	for _, t := range l.active {
		t.remaining -= credit
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
}

// durationFor returns the simulated time to move bytes at rate bytes/sec,
// rounded up to the next nanosecond so that a full wait always completes
// the transfer.
func durationFor(bytes, rate float64) time.Duration {
	if rate <= 0 {
		panic("fabric: non-positive rate")
	}
	ns := math.Ceil(bytes / rate * 1e9)
	if ns < 1 {
		ns = 1
	}
	if ns > math.MaxInt64 {
		panic(fmt.Sprintf("fabric: transfer duration overflow (%v bytes at %v B/s)", bytes, rate))
	}
	return time.Duration(ns)
}

// A Path is a sequence of links crossed store-and-forward. Most routes in
// the DGX topology are single-link; multi-hop paths (e.g. host→SSD→PFS)
// are modeled conservatively as sequential hops.
type Path []*Link

// TryTransfer moves size bytes hop by hop, stopping at the first hop that
// fails. It returns the simulated time consumed either way.
func (p Path) TryTransfer(size int64) (time.Duration, error) {
	var total time.Duration
	for _, l := range p {
		d, err := l.TryTransfer(size)
		total += d
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Estimate sums the per-hop estimates for size bytes.
func (p Path) Estimate(size int64) time.Duration {
	var total time.Duration
	for _, l := range p {
		total += l.Estimate(size)
	}
	return total
}
