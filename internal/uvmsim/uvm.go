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
//   - page-fault replay: first-touch access to non-resident pages costs a
//     per-page-batch fault latency on top of the transfer;
//   - migrate-before-evict: the driver writes device pages back to the
//     host before reusing them, so evictions consume PCIe bandwidth and
//     block the faulting thread (Score instead drops consumed/flushed
//     replicas for free);
//   - migration bandwidth: fault-driven migrations achieve only a fraction
//     of the peak pinned-copy PCIe bandwidth.
//
// The external API mirrors the Score runtime so the benchmark harness can
// drive all approaches identically.
package uvmsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"score/internal/device"
	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/simclock"
)

// Errors mirroring the core runtime's.
var (
	ErrUnknownCheckpoint = errors.New("uvmsim: unknown checkpoint")
	ErrClosed            = errors.New("uvmsim: client closed")
	ErrDuplicate         = errors.New("uvmsim: checkpoint version already written")
)

// Config parameterizes the UVM model.
type Config struct {
	// Clock drives timing; required.
	Clock simclock.Clock
	// GPU supplies the D2D and PCIe links; required.
	GPU *device.GPU
	// NVMe is the node-shared SSD link; required.
	NVMe *fabric.Link

	// DeviceCacheSize is the managed-memory share of HBM the benchmark
	// grants UVM (the paper uses the same 4 GiB as Score's GPU cache).
	DeviceCacheSize int64
	// HostCacheSize bounds the host-side backing store (32 GiB in the
	// paper); overflow spills to the SSD.
	HostCacheSize int64
	// PageSize is the UVM migration granularity (2 MiB huge pages).
	PageSize int64
	// FaultBatchPages is how many pages one fault-replay cycle covers.
	FaultBatchPages int
	// FaultLatency is the cost of one fault-replay cycle.
	FaultLatency time.Duration
	// MigrationEfficiency scales PCIe bandwidth for fault-driven
	// migrations (measured well below pinned-copy peak; ~0.6).
	MigrationEfficiency float64
	// OversubPenalty further scales migration bandwidth while the
	// device is oversubscribed (eviction pressure): page thrashing
	// collapses UVM throughput by multiples (Allen & Ge [1], Ganguly et
	// al. [10]). Applied when a migration required evictions.
	OversubPenalty float64
	// AsyncHostInit charges the host backing-store registration
	// (HostCacheSize at ~4 GB/s) overlapped with the run; writebacks
	// wait until it completes, mirroring the Score runtime's setting
	// and the paper's observation that slow host-cache initialization
	// limits every cached approach's checkpoint throughput (§5.4.2).
	AsyncHostInit bool
	// DiscardAfterRestore mirrors the Score option: consumed
	// checkpoints need not be flushed to the SSD.
	DiscardAfterRestore bool
}

func (c Config) withDefaults() Config {
	if c.DeviceCacheSize == 0 {
		c.DeviceCacheSize = 4 * fabric.GB
	}
	if c.HostCacheSize == 0 {
		c.HostCacheSize = 32 * fabric.GB
	}
	if c.PageSize == 0 {
		c.PageSize = 2 << 20
	}
	if c.FaultBatchPages == 0 {
		c.FaultBatchPages = 16
	}
	if c.FaultLatency == 0 {
		c.FaultLatency = 40 * time.Microsecond
	}
	if c.MigrationEfficiency == 0 {
		c.MigrationEfficiency = 0.6
	}
	if c.OversubPenalty == 0 {
		c.OversubPenalty = 0.35
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Clock == nil:
		return errors.New("uvmsim: Clock required")
	case c.GPU == nil:
		return errors.New("uvmsim: GPU required")
	case c.NVMe == nil:
		return errors.New("uvmsim: NVMe required")
	case c.DeviceCacheSize <= 0 || c.HostCacheSize <= 0 || c.PageSize <= 0:
		return errors.New("uvmsim: sizes must be positive")
	case c.MigrationEfficiency <= 0 || c.MigrationEfficiency > 1:
		return errors.New("uvmsim: MigrationEfficiency must be in (0,1]")
	case c.OversubPenalty <= 0 || c.OversubPenalty > 1:
		return errors.New("uvmsim: OversubPenalty must be in (0,1]")
	}
	return nil
}

// ckpt tracks one checkpoint's residency across the managed space.
type ckpt struct {
	id   int64
	size int64
	pay  payload.Payload

	deviceBytes int64 // bytes resident on the device
	hostBytes   int64 // bytes resident on the host backing store
	ssd         bool  // a full copy reached the SSD
	consumed    bool
	prefetched  bool // pulled in by cudaMemPrefetchAsync, not yet consumed
	inflight    bool // a migration toward the device is in progress
	lru         time.Duration
	flushQueued bool
}

// pinned is what k holds of the prefetch window: all of it while a
// migration toward the device is in flight, its resident bytes once
// prefetched, nothing once consumed.
func (k *ckpt) pinned() int64 {
	switch {
	case k.consumed || !(k.prefetched || k.inflight):
		return 0
	case k.inflight:
		return k.size
	}
	return k.deviceBytes
}

// Client is one process's UVM-based checkpointing runtime.
type Client struct {
	cfg Config
	clk simclock.Clock
	rec *metrics.Recorder

	mu   sync.Mutex
	cond simclock.Cond

	ckpts       map[int64]*ckpt
	order       []int64 // creation order (for LRU scans)
	devUsed     int64
	hostUsed    int64
	pinnedBytes int64 // the sum of pinned() over ckpts, kept by update
	hints       []int64
	hintHead    int
	pfStarted   bool
	closed      bool
	err         error

	flushQ  []int64
	flushOn bool

	restoreIter int
	hostReadyAt time.Duration
	daemons     *simclock.WaitGroup
}

// New creates and starts a UVM client.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, clk: cfg.Clock, rec: metrics.NewRecorder(), ckpts: map[int64]*ckpt{}}
	c.cond = c.clk.NewCond(&c.mu)
	c.daemons = simclock.NewWaitGroup(c.clk)
	if err := cfg.GPU.AllocDevice(cfg.DeviceCacheSize); err != nil {
		return nil, fmt.Errorf("uvmsim: reserving managed device space: %w", err)
	}
	if cfg.AsyncHostInit {
		rate := cfg.GPU.Costs().PinnedHostBytesPerSec
		c.hostReadyAt = c.clk.Now() + time.Duration(float64(cfg.HostCacheSize)/rate*1e9)
	}
	c.daemons.Add(2)
	c.clk.Go(func() { defer c.daemons.Done(); c.flusher() })
	c.clk.Go(func() { defer c.daemons.Done(); c.prefetcher() })
	return c, nil
}

// Close stops background workers.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.daemons.Wait()
}

// Err returns the first asynchronous failure.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Metrics returns the client's recorder.
func (c *Client) Metrics() *metrics.Recorder { return c.rec }

// migrate charges a fault-driven migration of size bytes across PCIe: the
// transfer contends on the real PCIe link but only achieves migration
// efficiency, modeled as transferring the equivalent inflated volume.
// Under oversubscription pressure (pressured), page thrashing collapses
// the effective bandwidth further by OversubPenalty. An injected PCIe
// fault surfaces as the returned error.
func (c *Client) migrate(size int64, pressured bool) error {
	eff := c.cfg.MigrationEfficiency
	if pressured {
		eff *= c.cfg.OversubPenalty
	}
	_, err := c.cfg.GPU.PCIeLink().TryTransfer(int64(float64(size) / eff))
	return err
}

// fail records the first asynchronous failure. It wakes nobody: no wait
// loop reads c.err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// waitHostReady blocks until the host backing store is registered.
func (c *Client) waitHostReady() {
	if d := c.hostReadyAt - c.clk.Now(); d > 0 {
		c.clk.Sleep(d)
	}
}

// faultCost charges page-fault replay for touching size bytes.
func (c *Client) faultCost(size int64) {
	pages := (size + c.cfg.PageSize - 1) / c.cfg.PageSize
	batches := (pages + int64(c.cfg.FaultBatchPages) - 1) / int64(c.cfg.FaultBatchPages)
	c.clk.Sleep(time.Duration(batches) * c.cfg.FaultLatency)
}

// reserveDevice frees device space for need bytes by migrating LRU
// checkpoints back to the host (the driver's migrate-before-evict
// behavior) and atomically reserves the space (devUsed += need) once
// available. The victim selection skips prefetched-unconsumed checkpoints
// (the benchmark's thrash-avoidance window) and exclude.
func (c *Client) reserveDevice(need int64, exclude *ckpt) (evicted bool, err error) {
	for {
		c.mu.Lock()
		if c.cfg.DeviceCacheSize-c.devUsed >= need {
			c.devUsed += need
			c.mu.Unlock()
			return evicted, nil
		}
		if c.closed {
			c.mu.Unlock()
			return evicted, ErrClosed
		}
		// LRU victim with device residency.
		var victim *ckpt
		for _, id := range c.order {
			k := c.ckpts[id]
			if k == exclude || k.deviceBytes == 0 || k.inflight {
				continue
			}
			if k.prefetched && !k.consumed {
				continue // window-pinned
			}
			if victim == nil || k.lru < victim.lru {
				victim = k
			}
		}
		if victim == nil {
			// Everything is pinned: wait for consumption.
			c.cond.Wait()
			c.mu.Unlock()
			continue
		}
		evicted = true
		bytes := victim.deviceBytes
		c.update(victim, func() { victim.deviceBytes = 0 })
		c.devUsed -= bytes
		if victim.hostBytes < victim.size {
			c.hostUsed += victim.size - victim.hostBytes
			victim.hostBytes = victim.size
		}
		c.mu.Unlock()

		// Migrate-before-evict: the driver writes the pages back even
		// when a host copy exists — the documented disadvantage vs
		// Score's direct eviction. The writeback itself is a bulk
		// migration (no thrash penalty); the cost is the extra PCIe
		// traffic and the blocking it causes.
		c.waitHostReady()
		err = c.migrate(bytes, false)
		if err == nil {
			c.spillHostIfNeeded()
		}
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
		if err != nil {
			return evicted, err
		}
	}
}

// spillHostIfNeeded keeps the host backing store within bounds by writing
// the oldest host-resident checkpoints to the SSD and dropping them.
func (c *Client) spillHostIfNeeded() {
	for {
		c.mu.Lock()
		if c.hostUsed <= c.cfg.HostCacheSize {
			c.mu.Unlock()
			return
		}
		var victim *ckpt
		for _, id := range c.order {
			k := c.ckpts[id]
			if k.hostBytes == 0 {
				continue
			}
			if k.deviceBytes > 0 && k.prefetched && !k.consumed {
				continue
			}
			victim = k
			break
		}
		if victim == nil {
			c.mu.Unlock()
			return
		}
		toSSD := !victim.ssd && !(victim.consumed && c.cfg.DiscardAfterRestore)
		bytes := victim.hostBytes
		victim.hostBytes = 0
		c.hostUsed -= bytes
		if toSSD {
			victim.ssd = true
		}
		c.mu.Unlock()
		if toSSD {
			if _, err := c.cfg.NVMe.TryTransfer(bytes); err != nil {
				// The spill never landed: un-mark the SSD copy and
				// surface the failure rather than dropping it silently.
				c.mu.Lock()
				victim.ssd = false
				c.mu.Unlock()
				c.fail(err)
				return
			}
		}
	}
}

// Checkpoint writes version id. The writing kernel touches fresh managed
// pages (fault replay), may stall on migrate-before-evict to make room,
// and then copies the snapshot in at device bandwidth. The preferred-
// location hint then queues an asynchronous writeback to the host.
func (c *Client) Checkpoint(id int64, pay payload.Payload) error {
	start := c.clk.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if _, dup := c.ckpts[id]; dup {
		c.mu.Unlock()
		return ErrDuplicate
	}
	k := &ckpt{id: id, size: pay.Size(), pay: pay, lru: c.clk.Now()}
	c.ckpts[id] = k
	c.order = append(c.order, id)
	c.mu.Unlock()

	if _, err := c.reserveDevice(k.size, k); err != nil {
		return err
	}
	c.mu.Lock()
	c.update(k, func() { k.deviceBytes = k.size })
	c.mu.Unlock()

	c.faultCost(k.size)       // first touch of managed pages
	c.cfg.GPU.CopyD2D(k.size) // snapshot into the managed buffer

	// cudaMemAdviseSetPreferredLocation(host): async writeback.
	c.mu.Lock()
	k.flushQueued = true
	c.flushQ = append(c.flushQ, id)
	c.cond.Broadcast()
	c.mu.Unlock()

	c.rec.Checkpoint(k.size, c.clk.Now()-start)
	return nil
}

// flusher performs the hint-driven writebacks (device → host) and the
// SSD flush chain.
func (c *Client) flusher() {
	for {
		c.mu.Lock()
		for len(c.flushQ) == 0 {
			if c.closed {
				c.mu.Unlock()
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
		id := c.flushQ[0]
		c.flushQ = c.flushQ[1:]
		c.flushOn = true
		k := c.ckpts[id]
		skip := k == nil || (k.consumed && c.cfg.DiscardAfterRestore)
		var bytes int64
		if !skip {
			bytes = k.size
			if k.hostBytes == 0 {
				k.hostBytes = k.size
				c.hostUsed += k.size
			}
		}
		c.mu.Unlock()
		if skip {
			continue
		}
		c.waitHostReady()
		// Device → host writeback at migration bandwidth.
		if err := c.migrate(bytes, false); err != nil {
			c.fail(err)
			continue
		}
		c.spillHostIfNeeded()
		// Flush host copy onward to the SSD for durability.
		c.mu.Lock()
		toSSD := !k.ssd && !(k.consumed && c.cfg.DiscardAfterRestore)
		if toSSD {
			k.ssd = true
		}
		c.mu.Unlock()
		if toSSD {
			if _, err := c.cfg.NVMe.TryTransfer(bytes); err != nil {
				c.mu.Lock()
				k.ssd = false
				c.mu.Unlock()
				c.fail(err)
			}
		}
	}
}

// PrefetchEnqueue appends a restore-order hint (backing the
// cudaMemPrefetchAsync calls).
func (c *Client) PrefetchEnqueue(id int64) {
	c.mu.Lock()
	c.hints = append(c.hints, id)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// PrefetchStart enables the prefetch thread.
func (c *Client) PrefetchStart() {
	c.mu.Lock()
	c.pfStarted = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// prefetcher issues cudaMemPrefetchAsync for hinted checkpoints, bounded
// by the device window: prefetched-but-unconsumed bytes never exceed the
// device cache (§5.2.2's explicit thrash-avoidance accounting).
func (c *Client) prefetcher() {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return
		}
		if !c.pfStarted {
			c.cond.Wait()
			continue
		}
		var target *ckpt
		for i := c.hintHead; i < len(c.hints); i++ {
			k := c.ckpts[c.hints[i]]
			if k == nil || k.consumed || k.inflight {
				continue
			}
			if k.deviceBytes >= k.size {
				continue // already resident
			}
			if c.pinnedBytes+k.size > c.cfg.DeviceCacheSize {
				break // window full: wait for consumption
			}
			target = k
			break
		}
		if target == nil {
			c.cond.Wait()
			continue
		}
		c.update(target, func() { target.prefetched, target.inflight = true, true })
		target.lru = c.clk.Now()
		need := target.size - target.deviceBytes
		c.mu.Unlock()

		_, err := c.reserveDevice(need, target) // cudaMemPrefetchAsync moves pages in bulk: no thrash
		if err == nil {
			err = c.ensureHost(target)
		}
		if err == nil {
			err = c.migrate(need, false) // host → device prefetch migration
		}
		c.mu.Lock()
		c.update(target, func() {
			if err == nil {
				target.deviceBytes = target.size
			}
			target.inflight = false
		})
		c.cond.Broadcast()
		if err != nil {
			c.mu.Unlock()
			if !errors.Is(err, ErrClosed) {
				c.fail(err)
			}
			return
		}
	}
}

// ensureHost pulls the checkpoint from the SSD into the host backing
// store if needed.
func (c *Client) ensureHost(k *ckpt) error {
	c.mu.Lock()
	prevHost := k.hostBytes
	needSSD := k.hostBytes < k.size && k.deviceBytes < k.size
	if needSSD {
		c.hostUsed += k.size - k.hostBytes
		k.hostBytes = k.size
	}
	c.mu.Unlock()
	if needSSD {
		c.waitHostReady()
		if _, err := c.cfg.NVMe.TryTransfer(k.size); err != nil {
			// The SSD read never completed: undo the host accounting.
			c.mu.Lock()
			c.hostUsed -= k.size - prevHost
			k.hostBytes = prevHost
			c.mu.Unlock()
			return err
		}
		c.spillHostIfNeeded()
	}
	return nil
}

// Restore reads checkpoint id into the application buffer. Device-
// resident pages are read directly; non-resident pages fault and migrate.
// Consumption re-advises the preferred location to host so the driver can
// evict (which it does by migrating).
func (c *Client) Restore(id int64) (payload.Payload, error) {
	start := c.clk.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	k, ok := c.ckpts[id]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknownCheckpoint
	}
	iter := c.restoreIter
	c.restoreIter++
	pfDist := c.prefetchDistanceLocked(id)
	// If the prefetcher is migrating this checkpoint in right now, wait
	// for it rather than double-reserving device space.
	for k.inflight {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		c.cond.Wait()
	}
	missing := k.size - k.deviceBytes
	c.update(k, func() { k.inflight = missing > 0 })
	k.lru = c.clk.Now()
	c.mu.Unlock()

	if missing > 0 {
		// Fault path: make room (migrate-before-evict), pull from
		// host (via SSD if spilled), pay fault replay.
		evicted, err := c.reserveDevice(missing, k)
		if err == nil {
			err = c.ensureHost(k)
		}
		if err == nil {
			c.faultCost(missing)
			err = c.migrate(missing, evicted)
		}
		if err != nil {
			c.mu.Lock()
			c.update(k, func() { k.inflight = false })
			c.cond.Broadcast()
			c.mu.Unlock()
			return nil, err
		}
		c.mu.Lock()
		c.update(k, func() { k.deviceBytes, k.inflight = k.size, false })
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	c.cfg.GPU.CopyD2D(k.size) // managed buffer → application buffer

	c.mu.Lock()
	c.update(k, func() { k.consumed, k.prefetched = true, false })
	if c.hintHead < len(c.hints) && c.hints[c.hintHead] == id {
		c.hintHead++
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	c.rec.Restore(iter, k.size, c.clk.Now()-start, pfDist)
	return k.pay, nil
}

// update applies change to k's residency under c.mu and carries the
// difference it makes to k's pinned bytes into pinnedBytes.
func (c *Client) update(k *ckpt, change func()) {
	before := k.pinned()
	change()
	c.pinnedBytes += k.pinned() - before
}

// prefetchDistanceLocked mirrors the §5.4.4 metric for UVM.
func (c *Client) prefetchDistanceLocked(current int64) int {
	dist := 0
	for i := c.hintHead; i < len(c.hints); i++ {
		id := c.hints[i]
		if id == current {
			continue
		}
		k := c.ckpts[id]
		if k == nil || k.deviceBytes < k.size {
			break
		}
		dist++
	}
	return dist
}

// WaitFlush drains the writeback + SSD chain.
func (c *Client) WaitFlush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.flushQ) > 0 || c.flushOn {
		if c.closed {
			return ErrClosed
		}
		c.cond.Wait()
	}
	return c.err
}
