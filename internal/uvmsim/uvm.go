// Package uvmsim models the paper's "optimized UVM" baseline (§5.2.2):
// Nvidia Unified Virtual Memory with the best hinting the CUDA API allows
// — cudaMemAdviseSetPreferredLocation to push consumed checkpoints toward
// the host, cudaMemPrefetchAsync to pull hinted checkpoints toward the
// device, and an application-side window that throttles prefetching to the
// device cache size to avoid page thrashing.
//
// The mechanisms that make UVM slower than an explicit cache — and that
// the paper's evaluation measures — are modeled directly:
//
//   - page-fault replay: first-touch access to non-resident pages costs
//     faultLatency per faultBatchPages pages of pageSize, on top of the
//     transfer;
//   - migrate-before-evict: the driver writes device pages back to the
//     host before reusing them, so evictions consume PCIe bandwidth and
//     block the faulting thread (Score instead drops consumed/flushed
//     replicas for free);
//   - migration bandwidth: fault-driven migrations achieve only
//     migrationEfficiency of the peak pinned-copy PCIe bandwidth, and
//     oversubPenalty of that when the fault had to evict.
//
// Those driver costs are package constants: every shot uses the same
// values.
//
// The external API mirrors the Score runtime so the benchmark harness can
// drive all approaches identically.
package uvmsim

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"score/internal/device"
	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/simclock"
	"score/internal/slab"
)

// Errors mirroring the core runtime's.
var (
	ErrUnknownCheckpoint = errors.New("uvmsim: unknown checkpoint")
	ErrClosed            = errors.New("uvmsim: client closed")
	ErrDuplicate         = errors.New("uvmsim: checkpoint version already written")
)

// The driver's costs, the same for every shot:
const (
	// pageSize is the UVM migration granularity (2 MiB huge pages).
	pageSize = 2 << 20
	// faultBatchPages is how many pages one fault-replay cycle covers.
	faultBatchPages = 16
	// faultLatency is the cost of one fault-replay cycle.
	faultLatency = 40 * time.Microsecond
	// migrationEfficiency scales PCIe bandwidth for fault-driven
	// migrations (measured well below pinned-copy peak).
	migrationEfficiency = 0.6
	// oversubPenalty further scales migration bandwidth while the device
	// is oversubscribed (eviction pressure): page thrashing collapses UVM
	// throughput by multiples (Allen & Ge [1], Ganguly et al. [10]).
	// Applied when a fault's migration required evictions.
	oversubPenalty = 0.35
)

// Config parameterizes the UVM model.
type Config struct {
	// Clock drives timing; required.
	Clock *simclock.Virtual
	// GPU supplies the D2D and PCIe links; required.
	GPU *device.GPU
	// NVMe is the node-shared SSD link; required.
	NVMe *fabric.Link

	// DeviceCacheSize is the managed-memory share of HBM the benchmark
	// grants UVM (the paper uses the same 4 GiB as Score's GPU cache);
	// required, like HostCacheSize.
	DeviceCacheSize int64
	// HostCacheSize bounds the host-side backing store (32 GiB in the
	// paper); overflow spills to the SSD. Its registration (HostCacheSize
	// at the pinned-host rate) overlaps the run, and writebacks wait until
	// it completes, as the Score runtime's asynchronous host init does
	// (§5.4.2: slow host-cache initialization limits every cached
	// approach's checkpoint throughput).
	HostCacheSize int64
	// DiscardAfterRestore mirrors the Score option: consumed
	// checkpoints need not be flushed to the SSD.
	DiscardAfterRestore bool
}

func (c Config) validate() error {
	switch {
	case c.Clock == nil:
		return errors.New("uvmsim: Clock required")
	case c.GPU == nil:
		return errors.New("uvmsim: GPU required")
	case c.NVMe == nil:
		return errors.New("uvmsim: NVMe required")
	case c.DeviceCacheSize <= 0 || c.HostCacheSize <= 0:
		return errors.New("uvmsim: sizes must be positive")
	}
	return nil
}

// ckpt tracks one checkpoint's residency across the managed space.
type ckpt struct {
	id   int64
	size int64
	pay  payload.Payload

	onDevice   bool // resident on the device
	onHost     bool // resident on the host backing store
	ssd        bool // a full copy reached the SSD
	consumed   bool
	prefetched bool // pulled in by cudaMemPrefetchAsync, not yet consumed
	inflight   bool // being written, or migrating toward the device
	lru        time.Duration
}

// pinned is what k holds of the prefetch window: all of it while it is in
// flight (written or migrated in) and while it is resident after a
// prefetch, nothing once consumed.
func (k *ckpt) pinned() int64 {
	if k.consumed || !(k.inflight || k.prefetched && k.onDevice) {
		return 0
	}
	return k.size
}

// Client is one process's UVM-based checkpointing runtime.
type Client struct {
	cfg Config
	clk *simclock.Virtual
	rec *metrics.Recorder

	cond simclock.Cond

	ckpts       map[int64]*ckpt
	records     slab.Slab[ckpt] // every checkpoint's record is cut from it
	order       []*ckpt         // creation order (for LRU scans)
	devUsed     int64
	hostUsed    int64
	pinnedBytes int64 // the sum of pinned() over ckpts, kept by update
	hints       []int64
	hintHead    int
	pfStarted   bool
	closed      bool
	err         error

	flushQ  slab.Queue[*ckpt] // writebacks not yet started, in FIFO order
	flushOn bool

	restoreIter int
	hostReadyAt time.Duration
	daemons     *simclock.WaitGroup
}

// New creates and starts a UVM client.
func New(cfg Config) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, clk: cfg.Clock, rec: metrics.NewRecorder(),
		ckpts: make(map[int64]*ckpt, slab.Block), order: slab.Make[*ckpt]()}
	c.cond = c.clk.NewCond(nil)
	c.daemons = simclock.NewWaitGroup(c.clk)
	if err := cfg.GPU.AllocDevice(cfg.DeviceCacheSize); err != nil {
		return nil, fmt.Errorf("uvmsim: reserving managed device space: %w", err)
	}
	rate := cfg.GPU.Costs().PinnedHostBytesPerSec
	c.hostReadyAt = c.clk.Now() + time.Duration(float64(cfg.HostCacheSize)/rate*1e9)
	c.daemons.Add(2)
	c.clk.Go(func() { defer c.daemons.Done(); c.flusher() })
	c.clk.Go(func() { defer c.daemons.Done(); c.prefetcher() })
	return c, nil
}

// Close stops background workers.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.daemons.Wait()
}

// Err returns the first asynchronous failure.
func (c *Client) Err() error {
	return c.err
}

// Metrics returns the client's recorder.
func (c *Client) Metrics() *metrics.Recorder { return c.rec }

// migrate charges a fault-driven migration of size bytes across PCIe: the
// transfer contends on the real PCIe link but only achieves migration
// efficiency, modeled as transferring the equivalent inflated volume.
// Under oversubscription pressure (pressured), page thrashing collapses
// the effective bandwidth further by oversubPenalty. An injected PCIe
// fault surfaces as the returned error.
func (c *Client) migrate(size int64, pressured bool) error {
	eff := migrationEfficiency
	if pressured {
		eff *= oversubPenalty
	}
	_, err := c.cfg.GPU.PCIeLink().TryTransfer(int64(float64(size) / eff))
	return err
}

// fail records the first asynchronous failure. It wakes nobody: no wait
// loop reads c.err.
func (c *Client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// waitHostReady blocks until the host backing store is registered.
func (c *Client) waitHostReady() {
	if d := c.hostReadyAt - c.clk.Now(); d > 0 {
		c.clk.Sleep(d)
	}
}

// faultCost charges page-fault replay for touching size bytes.
func (c *Client) faultCost(size int64) {
	pages := (size + pageSize - 1) / pageSize
	batches := (pages + faultBatchPages - 1) / faultBatchPages
	c.clk.Sleep(time.Duration(batches) * faultLatency)
}

// reserveDevice frees device space for need bytes by migrating LRU
// checkpoints back to the host (the driver's migrate-before-evict
// behavior) and atomically reserves the space (devUsed += need) once
// available. The victim selection skips checkpoints in flight (among them
// the one the room is for) and prefetched-unconsumed ones (the
// benchmark's thrash-avoidance window).
func (c *Client) reserveDevice(need int64) (evicted bool, err error) {
	for {
		if c.cfg.DeviceCacheSize-c.devUsed >= need {
			c.devUsed += need
			return evicted, nil
		}
		if c.closed {
			return evicted, ErrClosed
		}
		// LRU victim with device residency.
		var victim *ckpt
		for _, k := range c.order {
			if !k.onDevice || k.inflight || k.prefetched && !k.consumed {
				continue // in flight or window-pinned
			}
			if victim == nil || k.lru < victim.lru {
				victim = k
			}
		}
		if victim == nil {
			// Everything is pinned: wait for consumption.
			c.cond.Wait()
			continue
		}
		evicted = true
		c.update(victim, func() { victim.onDevice = false })
		c.devUsed -= victim.size
		if !victim.onHost {
			c.hostUsed += victim.size
			victim.onHost = true
		}

		// Migrate-before-evict: the driver writes the pages back even
		// when a host copy exists — the documented disadvantage vs
		// Score's direct eviction. The writeback itself is a bulk
		// migration (no thrash penalty); the cost is the extra PCIe
		// traffic and the blocking it causes.
		c.waitHostReady()
		err = c.migrate(victim.size, false)
		if err == nil {
			c.spillHostIfNeeded()
		}
		c.cond.Broadcast()
		if err != nil {
			return evicted, err
		}
	}
}

// spillHostIfNeeded keeps the host backing store within bounds by writing
// the oldest host-resident checkpoints to the SSD and dropping them.
func (c *Client) spillHostIfNeeded() {
	for {
		if c.hostUsed <= c.cfg.HostCacheSize {
			return
		}
		var victim *ckpt
		for _, k := range c.order {
			if k.onHost && !(k.onDevice && k.prefetched && !k.consumed) {
				victim = k
				break
			}
		}
		if victim == nil {
			return
		}
		toSSD := !victim.ssd && !(victim.consumed && c.cfg.DiscardAfterRestore)
		victim.onHost = false
		c.hostUsed -= victim.size
		if toSSD {
			victim.ssd = true
		}
		if toSSD {
			if _, err := c.cfg.NVMe.TryTransfer(victim.size); err != nil {
				// The spill never landed: un-mark the SSD copy and
				// surface the failure rather than dropping it silently.
				victim.ssd = false
				c.fail(err)
				return
			}
		}
	}
}

// Checkpoint writes version id. The writing kernel touches fresh managed
// pages (fault replay), may stall on migrate-before-evict to make room,
// and then copies the snapshot in at device bandwidth. The preferred-
// location hint then queues an asynchronous writeback to the host. The
// record is in flight until the copy lands, so no prefetch, restore or
// eviction takes it before; a write that fails leaves no record.
func (c *Client) Checkpoint(id int64, pay payload.Payload) error {
	start := c.clk.Now()
	if c.closed {
		return ErrClosed
	}
	if _, dup := c.ckpts[id]; dup {
		return ErrDuplicate
	}
	k := c.records.New()
	*k = ckpt{id: id, size: pay.Size(), pay: pay, lru: c.clk.Now()}
	c.update(k, func() { k.inflight = true })
	c.ckpts[id] = k
	c.order = append(c.order, k)

	_, err := c.reserveDevice(k.size)
	if err == nil {
		c.faultCost(k.size)       // first touch of managed pages
		c.cfg.GPU.CopyD2D(k.size) // snapshot into the managed buffer
	}

	c.update(k, func() { k.onDevice, k.inflight = err == nil, false })
	if err == nil {
		// cudaMemAdviseSetPreferredLocation(host): async writeback.
		c.flushQ.Push(k)
	} else {
		delete(c.ckpts, id)
		c.order = slices.DeleteFunc(c.order, func(o *ckpt) bool { return o == k })
	}
	c.cond.Broadcast()
	if err != nil {
		return err
	}

	c.rec.Checkpoint(k.size, c.clk.Now()-start)
	return nil
}

// flusher performs the hint-driven writebacks (device → host) and the
// SSD flush chain.
func (c *Client) flusher() {
	for {
		for c.flushQ.Len() == 0 {
			if c.closed {
				return
			}
			if c.flushOn {
				// Transitioning to idle: wake WaitFlush once. A
				// broadcast on every pass would ping-pong with other
				// idle waiters and livelock the virtual clock.
				c.flushOn = false
				c.cond.Broadcast()
			}
			c.cond.Wait()
		}
		k, _ := c.flushQ.Pop()
		c.flushOn = true
		skip := k.consumed && c.cfg.DiscardAfterRestore
		if !skip && !k.onHost {
			k.onHost = true
			c.hostUsed += k.size
		}
		if skip {
			continue
		}
		c.waitHostReady()
		// Device → host writeback at migration bandwidth.
		if err := c.migrate(k.size, false); err != nil {
			c.fail(err)
			continue
		}
		c.spillHostIfNeeded()
		// Flush host copy onward to the SSD for durability.
		toSSD := !k.ssd && !(k.consumed && c.cfg.DiscardAfterRestore)
		if toSSD {
			k.ssd = true
		}
		if toSSD {
			if _, err := c.cfg.NVMe.TryTransfer(k.size); err != nil {
				k.ssd = false
				c.fail(err)
			}
		}
	}
}

// PrefetchEnqueue appends a restore-order hint (backing the
// cudaMemPrefetchAsync calls).
func (c *Client) PrefetchEnqueue(id int64) {
	c.hints = append(c.hints, id)
	c.cond.Broadcast()
}

// PrefetchStart enables the prefetch thread.
func (c *Client) PrefetchStart() {
	c.pfStarted = true
	c.cond.Broadcast()
}

// prefetcher issues cudaMemPrefetchAsync for hinted checkpoints, bounded
// by the device window: prefetched-but-unconsumed bytes never exceed the
// device cache (§5.2.2's explicit thrash-avoidance accounting).
func (c *Client) prefetcher() {
	for {
		if c.closed {
			return
		}
		var target *ckpt
		for i := c.hintHead; c.pfStarted && i < len(c.hints); i++ {
			k := c.ckpts[c.hints[i]]
			if k == nil || k.consumed || k.inflight || k.onDevice {
				continue // unwritten, consumed, in flight or already resident
			}
			if c.pinnedBytes+k.size <= c.cfg.DeviceCacheSize {
				target = k
			}
			break // else the window is full: wait for consumption
		}
		if target == nil {
			c.cond.Wait()
			continue
		}
		c.update(target, func() { target.prefetched, target.inflight = true, true })
		target.lru = c.clk.Now()
		// cudaMemPrefetchAsync moves pages in bulk: no fault, no thrash.
		if err := c.pullIn(target, false); err != nil {
			if !errors.Is(err, ErrClosed) {
				c.fail(err)
			}
			return
		}
	}
}

// pullIn brings k, which the caller marked in flight, onto the device:
// it reserves room (migrate-before-evict), reads k from the SSD into the
// host backing store if no host copy exists, and migrates it in. A fault
// (fault) also pays fault replay and, when the room took evictions, the
// thrash penalty. A failed pull-in gives back the room it reserved.
func (c *Client) pullIn(k *ckpt, fault bool) error {
	evicted, err := c.reserveDevice(k.size)
	reserved := err == nil
	if err == nil {
		err = c.ensureHost(k)
	}
	if err == nil {
		if fault {
			c.faultCost(k.size)
		}
		err = c.migrate(k.size, fault && evicted)
	}
	c.update(k, func() { k.onDevice, k.inflight = err == nil, false })
	if err != nil && reserved {
		c.devUsed -= k.size
	}
	c.cond.Broadcast()
	return err
}

// ensureHost pulls the checkpoint from the SSD into the host backing
// store if needed.
func (c *Client) ensureHost(k *ckpt) error {
	needSSD := !k.onHost
	if needSSD {
		c.hostUsed += k.size
		k.onHost = true
	}
	if !needSSD {
		return nil
	}
	c.waitHostReady()
	if _, err := c.cfg.NVMe.TryTransfer(k.size); err != nil {
		// The SSD read never completed: undo the host accounting.
		c.hostUsed -= k.size
		k.onHost = false
		return err
	}
	c.spillHostIfNeeded()
	return nil
}

// Restore reads checkpoint id into the application buffer. Device-
// resident pages are read directly; non-resident pages fault and migrate.
// Consumption re-advises the preferred location to host so the driver can
// evict (which it does by migrating).
func (c *Client) Restore(id int64) (payload.Payload, error) {
	start := c.clk.Now()
	if c.closed {
		return payload.Payload{}, ErrClosed
	}
	k, ok := c.ckpts[id]
	if !ok {
		return payload.Payload{}, ErrUnknownCheckpoint
	}
	iter := c.restoreIter
	c.restoreIter++
	pfDist := c.prefetchDistance(id)
	// If a write or a prefetch is bringing this checkpoint in right now,
	// wait for it rather than double-reserving device space.
	for k.inflight {
		if c.closed {
			return payload.Payload{}, ErrClosed
		}
		c.cond.Wait()
	}
	if c.ckpts[id] != k { // its write failed
		return payload.Payload{}, ErrUnknownCheckpoint
	}
	fault := !k.onDevice
	c.update(k, func() { k.inflight = fault })
	k.lru = c.clk.Now()

	if fault {
		if err := c.pullIn(k, true); err != nil {
			return payload.Payload{}, err
		}
	}
	c.cfg.GPU.CopyD2D(k.size) // managed buffer → application buffer

	c.update(k, func() { k.consumed, k.prefetched = true, false })
	if c.hintHead < len(c.hints) && c.hints[c.hintHead] == id {
		c.hintHead++
	}
	c.cond.Broadcast()

	c.rec.Restore(iter, k.size, c.clk.Now()-start, pfDist)
	return k.pay, nil
}

// update applies change to k's residency and carries the
// difference it makes to k's pinned bytes into pinnedBytes.
func (c *Client) update(k *ckpt, change func()) {
	before := k.pinned()
	change()
	c.pinnedBytes += k.pinned() - before
}

// prefetchDistance mirrors the §5.4.4 metric for UVM.
func (c *Client) prefetchDistance(current int64) int {
	dist := 0
	for i := c.hintHead; i < len(c.hints); i++ {
		id := c.hints[i]
		if id == current {
			continue
		}
		if k := c.ckpts[id]; k == nil || !k.onDevice {
			break
		}
		dist++
	}
	return dist
}

// WaitFlush drains the writeback + SSD chain.
func (c *Client) WaitFlush() error {
	for c.flushQ.Len() > 0 || c.flushOn {
		if c.closed {
			return ErrClosed
		}
		c.cond.Wait()
	}
	return c.err
}
