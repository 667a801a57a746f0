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
// deterministically under the virtual clock.
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
// effectively settled at, which keeps simulated timings bit-identical —
// but wakes only the single transfer whose completion is next (the
// "pacer") instead of broadcasting to every waiter on every change.
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
	free       *transfer // pooled transfer records with their conds

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

// transfer is one in-flight payload. Records are pooled per link; cond is
// the transfer's private wakeup so membership changes signal exactly the
// transfers that must react (the pacer, the completed) instead of all.
type transfer struct {
	remaining float64 // bytes left to move
	seq       uint64
	cond      simclock.Cond
	done      bool
	next      *transfer // freelist
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
func (l *Link) TryTransfer(size int64) (time.Duration, error) {
	if size <= 0 {
		return 0, nil
	}
	start := l.clk.Now()

	var fd FaultDecision
	if p := l.interceptor.Load(); p != nil && *p != nil {
		fd = (*p)(l.name, size)
	}

	if l.latency > 0 {
		l.clk.Sleep(l.latency)
	}
	if fd.Delay > 0 {
		l.clk.Sleep(fd.Delay)
	}
	if fd.Err != nil {
		return l.clk.Now() - start, fmt.Errorf("fabric: link %q: %w", l.name, fd.Err)
	}
	effective := float64(size)
	if fd.BandwidthScale > 0 && fd.BandwidthScale < 1 {
		// Degraded bandwidth: moving the bytes takes 1/scale as long, and
		// the extra occupancy slows sharers exactly as real contention
		// would.
		effective /= fd.BandwidthScale
	}

	l.mu.Lock()
	l.settleLocked()
	t := l.getTransferLocked(effective)
	l.heapPush(t)
	l.inFlight.Store(int64(len(l.active)))
	l.peakConcurrent = max(l.peakConcurrent, len(l.active))
	l.totalBytes += size
	l.totalTransfers++
	// The settle above may have finished transfers due exactly now; they
	// leave (and the share they stop consuming is released) before the
	// new fair share is computed, as the broadcast chain used to arrange.
	l.reapLocked(t)
	l.electLocked(t)

	for !t.done {
		if l.pacer == t {
			// We complete next: hold the link's only timer. Anyone who
			// changes membership settles and re-elects, signalling us to
			// recompute; if the timer fires, our completion is the event.
			share := l.bw / float64(len(l.active))
			if t.cond.WaitTimeout(durationFor(t.remaining, share)) {
				l.settleLocked()
				l.reapLocked(t)
				l.electLocked(t)
			}
		} else {
			t.cond.Wait()
		}
	}
	l.putTransferLocked(t)
	l.mu.Unlock()

	return l.clk.Now() - start, nil
}

func (l *Link) getTransferLocked(effective float64) *transfer {
	t := l.free
	if t != nil {
		l.free = t.next
		t.next = nil
	} else {
		t = &transfer{cond: l.clk.NewCond(&l.mu)}
	}
	t.remaining = effective
	t.seq = l.seq
	l.seq++
	t.done = false
	return t
}

func (l *Link) putTransferLocked(t *transfer) {
	t.next = l.free
	l.free = t
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
// prefix of the completion heap — and signals each goroutine to return.
// self (the caller, if it is a member) needs no signal: it is already
// running and rechecks done on its next loop.
func (l *Link) reapLocked(self *transfer) {
	for len(l.active) > 0 && l.active[0].remaining <= 0.5 { // sub-byte residue counts as done
		t := l.active[0]
		l.heapPopTop()
		t.done = true
		if t != self {
			t.cond.Signal()
		}
	}
	l.inFlight.Store(int64(len(l.active)))
}

// electLocked re-reads the pacer — the completion-heap top — after a
// membership change. A demoted pacer must be signalled so its stale timer
// never fires a settle at a wrong instant; the elected pacer must be
// signalled so it re-arms at the new share. The caller itself
// re-evaluates on its own loop and is never signalled.
func (l *Link) electLocked(self *transfer) {
	var best *transfer
	if len(l.active) > 0 {
		best = l.active[0]
	}
	old := l.pacer
	l.pacer = best
	if old != nil && old != best && old != self && !old.done {
		old.cond.Signal()
	}
	if best != nil && best != self {
		best.cond.Signal()
	}
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
