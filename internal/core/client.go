package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/simclock"
	"score/internal/trace"
)

// Client is the Score runtime instance for one process (one GPU). It
// exposes the VELOC-style API the paper extends: Checkpoint (blocking only
// for the copy into the GPU cache), Restore, PrefetchEnqueue and
// PrefetchStart (the new primitives of §4.3), plus WaitFlush to drain the
// asynchronous flush chain.
//
// Lock ordering: cachebuf.Buffer's internal lock may be taken before
// Client.mu (entry lookups, eviction notices and the IfResident claims run
// under it); therefore no Client method may call into a Buffer while
// holding Client.mu. A replica's life-cycle machine locks last.
type Client struct {
	p    Params
	deep []deepTier // the tiers below the host cache, fastest first (deep.go)
	clk  simclock.Clock
	rec  *metrics.Recorder
	gpuC *cachebuf.Buffer // device cache (write side when SplitCache)
	gpuP *cachebuf.Buffer // prefetch-side device cache (SplitCache only)
	hstC *cachebuf.Buffer // pinned host cache

	mu   sync.Mutex
	cond simclock.Cond

	ckpts   map[ID]*checkpoint
	q       restoreQueue
	oracles [TierHost + 1]tierOracle // the cache tiers' eviction-entry sources
	started bool                     // prefetcher activated
	closed  bool
	killed  bool  // the rank died (fault injection); implies closed soon
	err     error // first asynchronous failure

	d2hQ, h2fQ idFIFO     // flush queues
	d2hBusy    int        // D2H workers with a job in flight
	h2fBusy    int        // H2F workers with a job in flight
	inFlight   map[ID]int // flush workers that currently own each version

	writersBusy int  // Checkpoint calls past the admission gate
	draining    bool // a preemption drain began; no new checkpoints (sticky)
	drainActive bool // the drain triage is still running (WaitFlush waits)
	drainFrozen bool // flush workers pop no new jobs (sticky once draining)

	flushStreams int // workers per flusher stage pool

	hostReadyAt time.Duration // pinned host cache registration completes
	hostNS      int64         // namespace in a shared host cache; -1 = private
	restoreIter int
	stagedBytes int64  // host-stager budget accounting
	events      uint64 // progress generation: bumped on real state changes

	degraded   [TierPFS + 1]bool          // tiers marked persistently failed
	degradedAt [TierPFS + 1]time.Duration // when each mark was (last) set

	rndMu sync.Mutex
	rnd   *rand.Rand // retry jitter; seeded for deterministic replays

	daemons *simclock.WaitGroup
	// hedgeWG tracks the gray-failure background legs (hedge reads still
	// in flight after their race was decided, stalled SSD writers that
	// were re-routed around); Close joins it so no leg outlives the
	// client.
	hedgeWG *simclock.WaitGroup
	// health estimates per-link-class latency quantiles and EWMA
	// slowdown scores, driving adaptive hedge/stall deadlines and
	// quarantine-on-breach.
	health *tierHealth
}

// New creates and starts a Client. The caller must Close it to stop the
// background flusher and prefetcher tasks.
func New(p Params) (*Client, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	c := &Client{
		p:        p,
		deep:     deepTiers(p),
		clk:      p.Clock,
		rec:      metrics.NewRecorder(),
		ckpts:    make(map[ID]*checkpoint),
		inFlight: make(map[ID]int),
	}
	c.cond = c.clk.NewCond(&c.mu)
	c.daemons = simclock.NewWaitGroup(c.clk)
	c.hedgeWG = simclock.NewWaitGroup(c.clk)
	c.health = newTierHealth()
	c.rnd = rand.New(rand.NewSource(p.FaultSeed*0x9E3779B9 + int64(p.GPU.ID()) + 1))

	// Pre-allocate the contiguous device cache (§4.1.4). The HBM
	// allocation itself is fast (~1 TB/s).
	if err := p.GPU.AllocDevice(p.GPUCacheSize); err != nil {
		return nil, fmt.Errorf("core: allocating GPU cache: %w", err)
	}
	for tier := range c.oracles {
		o := &c.oracles[tier]
		o.c, o.tier, o.src.Estimate = c, Tier(tier), o.flushEstimate
	}
	if gpuOracle := &c.oracles[TierGPU]; p.SplitCache {
		// Ablation of §4.1.2: separate half-size regions for flushing
		// and prefetching instead of one shared cache.
		half := p.GPUCacheSize / 2
		c.gpuC = cachebuf.NewFromEntries(c.clk, fmt.Sprintf("gpu%d-writecache", p.GPU.ID()), half, gpuOracle)
		c.gpuP = cachebuf.NewFromEntries(c.clk, fmt.Sprintf("gpu%d-readcache", p.GPU.ID()), half, gpuOracle)
	} else {
		c.gpuC = cachebuf.NewFromEntries(c.clk, fmt.Sprintf("gpu%d-cache", p.GPU.ID()),
			p.GPUCacheSize, gpuOracle)
	}
	// validate() already rejected unknown policies, so these cannot fail;
	// checked anyway so a registry regression surfaces at construction.
	if err := c.gpuC.SetPolicy(p.GPUEvictionPolicy); err != nil {
		return nil, err
	}
	if c.gpuP != nil {
		if err := c.gpuP.SetPolicy(p.GPUEvictionPolicy); err != nil {
			return nil, err
		}
	}
	// Per-stall eviction-wait observations feed the latency histogram.
	// Only buffers owned by this client get an observer: a shared host
	// pool serves several clients and cannot attribute its stalls.
	c.gpuC.SetWaitObserver(c.rec.EvictionWait)
	if c.gpuP != nil {
		c.gpuP.SetWaitObserver(c.rec.EvictionWait)
	}
	c.hostNS = -1
	if p.SharedHost != nil {
		c.hstC = p.SharedHost.buf
		c.hostNS = p.SharedHost.register(c)
		p.HostCacheSize = p.SharedHost.Capacity()
		c.p.HostCacheSize = p.HostCacheSize
	} else {
		c.hstC = cachebuf.NewFromEntries(c.clk, fmt.Sprintf("gpu%d-hostcache", p.GPU.ID()),
			p.HostCacheSize, &c.oracles[TierHost])
		c.hstC.SetWaitObserver(c.rec.EvictionWait)
	}
	if newClientHook != nil {
		newClientHook(c)
	}

	// Pinned host cache registration is slow (~4 GB/s, §4.1.4): either
	// pay it upfront, overlap it with the run (the paper observes the
	// latter limits early checkpoint throughput, §5.4.2), or — in the
	// on-demand ablation — skip it and pay per flush instead. A shared
	// pool carries its own (once-only) registration schedule.
	switch {
	case p.SharedHost != nil:
		// Each participating process pins one chunk of the pool in
		// parallel at its own registration rate.
		c.hostReadyAt = p.SharedHost.createdAt +
			pinnedAllocDuration(p.SharedHost.pinChunk, p.GPU.Costs().PinnedHostBytesPerSec)
	case p.OnDemandAlloc:
		c.hostReadyAt = c.clk.Now()
	case p.AsyncHostInit:
		c.hostReadyAt = c.clk.Now() + pinnedAllocDuration(p.HostCacheSize, p.GPU.Costs().PinnedHostBytesPerSec)
	default:
		p.GPU.AllocPinnedHost(p.HostCacheSize)
		c.hostReadyAt = c.clk.Now()
	}

	c.recoverFromStore()

	c.started = p.AutoStartPrefetch

	// Flusher stage pools (T_D2H and T_H2F). The default is the seed's
	// single worker per stage; with chunked streaming enabled the pools
	// grow to the copy-engine count so concurrent streams actually have
	// engines to run on.
	c.flushStreams = p.FlushStreams
	if c.flushStreams == 0 {
		if p.ChunkSize > 0 {
			c.flushStreams = p.GPU.CopyEngines()
		} else {
			c.flushStreams = 1
		}
	}
	c.daemons.Add(2*c.flushStreams + 2)
	for i := 0; i < c.flushStreams; i++ {
		c.clk.Go(func() { defer c.daemons.Done(); c.flusherD2H() })
		c.clk.Go(func() { defer c.daemons.Done(); c.flusherH2F() })
	}
	c.clk.Go(func() { defer c.daemons.Done(); c.prefetcher() })
	c.clk.Go(func() { defer c.daemons.Done(); c.hostStager() })
	return c, nil
}

// recoverFromStore rebuilds the checkpoint table from the durable
// stores: every valid stored checkpoint reappears as a FLUSHED replica
// on the tier(s) whose store holds it (SSD, partner SSD, PFS, or any
// combination), restorable through the normal promotion path with tier
// fallback.
func (c *Client) recoverFromStore() {
	for i := range c.deep {
		d := &c.deep[i]
		if d.store == nil {
			continue
		}
		for _, id := range d.store.IDs() {
			size, err := d.store.Size(id)
			if err != nil {
				continue
			}
			ck := c.ckpts[ID(id)]
			if ck == nil {
				ck = &checkpoint{id: ID(id), size: size,
					pay: &storePayload{deep: c.deep, rec: c.rec, id: id, size: size}}
				c.ckpts[ck.id] = ck
			}
			fsm := lifecycle.NewMachine(c.clk)
			fsm.MustTo(lifecycle.WriteInProgress)
			fsm.MustTo(lifecycle.WriteComplete)
			fsm.MustTo(lifecycle.Flushed)
			ck.replicas[d.tier] = &replica{tier: d.tier, fsm: fsm}
		}
	}
}

// newClientHook, when a _test.go sets it, sees every client New builds
// before its tasks start; production code never sets it.
var newClientHook func(c *Client)

// Recovered returns the versions restored from the durable store at
// construction, in ascending order.
func (c *Client) Recovered() []ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ID
	for id, ck := range c.ckpts {
		if _, ok := ck.pay.(*storePayload); ok {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// bumpLocked records real progress (a flush completed, a checkpoint was
// consumed, a hint arrived, a promotion landed) and wakes every parked
// task. Retry loops key off the generation counter, so spurious wakeups
// (e.g. a peer clearing its in-flight flag after a failed attempt) do not
// trigger fruitless re-attempts — the discipline that prevents broadcast
// ping-pong livelock under the virtual clock. Caller holds c.mu.
func (c *Client) bumpLocked() {
	c.events++
	c.cond.Broadcast()
}

// releaseStagedLocked returns ck's bytes to the stager budget once its
// staged host copy has served its purpose. Caller holds c.mu.
func (c *Client) releaseStagedLocked(ck *checkpoint) {
	if ck.stagedHost {
		ck.stagedHost = false
		c.stagedBytes -= ck.size
	}
}

func pinnedAllocDuration(size int64, rate float64) time.Duration {
	return time.Duration(float64(size) / rate * 1e9)
}

// waitHostReady blocks until the pinned host cache is registered.
func (c *Client) waitHostReady() {
	if d := c.hostReadyAt - c.clk.Now(); d > 0 {
		c.clk.Sleep(d)
	}
}

// Close stops the background tasks and unblocks all waiters. It is safe
// to call once all application requests have returned.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.gpuC.Close()
	if c.gpuP != nil {
		c.gpuP.Close()
	}
	if c.hostNS < 0 {
		c.hstC.Close()
	} else {
		// Shared pool: stay open for the other clients, but wake this
		// client's parked daemons so they can observe closed.
		c.hstC.Notify()
	}
	c.daemons.Wait()
	// Gray-failure background legs (hedge losers, re-routed stalled
	// writers) finish on their own in bounded virtual time; join them so
	// nothing references the client after Close returns.
	c.hedgeWG.Wait()
}

// notifyGPU wakes reservations on every GPU-side buffer.
func (c *Client) notifyGPU() {
	c.gpuC.Notify()
	if c.gpuP != nil {
		c.gpuP.Notify()
	}
}

// prefetchBuf returns the buffer promotions land in.
func (c *Client) prefetchBuf() *cachebuf.Buffer {
	if c.gpuP != nil {
		return c.gpuP
	}
	return c.gpuC
}

// Err returns the first asynchronous flusher/prefetcher failure, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Metrics returns the recorder collecting this client's measurements.
func (c *Client) Metrics() *metrics.Recorder { return c.rec }

// CacheStats returns eviction statistics for the GPU and host cache tiers.
func (c *Client) CacheStats() (gpu, host cachebuf.Stats) {
	return c.gpuC.Snapshot(), c.hstC.Snapshot()
}

// Checkpoint writes version id with the given payload. Per §2 condition 1
// it blocks until the data is copied into the GPU cache (evicting earlier
// checkpoints if needed under the score-based policy), then returns while
// the flush chain drains asynchronously.
func (c *Client) Checkpoint(id ID, pay payload.Payload) error {
	if id < 0 {
		return fmt.Errorf("core: invalid checkpoint id %d", id)
	}
	start := c.clk.Now()

	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return ErrKilled
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.draining {
		// A preemption drain began: the rank is being reclaimed and
		// accepts no new state (the notice is never revoked).
		c.mu.Unlock()
		return ErrDraining
	}
	if _, dup := c.ckpts[id]; dup {
		c.mu.Unlock()
		return ErrDuplicateCheckpoint
	}
	c.writersBusy++
	ck := &checkpoint{
		id:        id,
		size:      pay.Size(),
		pay:       pay,
		writing:   true,
		writtenAt: start,
		att:       newAttrib(metrics.CritDurable, int64(id), start),
	}
	rep := &replica{tier: TierGPU, fsm: lifecycle.NewMachine(c.clk)}
	// Hints may precede the write (Listing 1): pick up one already pending.
	ck.setHintLocked(c.q.firstPending(id))
	c.setReplicaLocked(ck, TierGPU, rep)
	c.ckpts[id] = ck
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.writersBusy--
		ck.writing = false
		c.bumpLocked()
		c.mu.Unlock()
	}()
	c.rec.CheckpointAccepted(ck.size)
	c.lifecycle(id, trace.LCreated, "", "")

	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackApp, "checkpoint",
			fmt.Sprintf("checkpoint %d", id), c.flowID(id))()
	}

	// Reserve GPU cache space; Algorithm 1 picks and evicts the best
	// window, blocking until it is evictable ("any delays due to
	// evictions" count toward application-observed blocking, §5.4.1).
	if _, err := c.gpuC.Reserve(cachebuf.ID(id), ck.size); err != nil {
		if err == cachebuf.ErrTooLarge {
			// §2 condition 4: the checkpoint cannot use the GPU cache —
			// fall back to a synchronous flush down the tier chain.
			return c.syncFlush(ck, rep, start)
		}
		c.mu.Lock()
		delete(c.ckpts, id)
		c.mu.Unlock()
		c.rec.CheckpointRejected(ck.size)
		if err == cachebuf.ErrClosed {
			return ErrClosed
		}
		return fmt.Errorf("core: checkpoint %d: GPU cache reservation: %w", id, err)
	}
	c.mark(ck.att, metrics.CompGPUAdmit)

	c.mustTransition(ck, rep, lifecycle.WriteInProgress)
	if c.p.OnDemandAlloc {
		// §4.1.4 ablation: a fresh device region is allocated for each
		// checkpoint instead of reusing the pre-allocated buffer.
		c.p.GPU.ChargeDeviceAlloc(ck.size)
		c.mark(ck.att, metrics.CompAlloc)
	}
	c.p.GPU.CopyD2D(ck.size) // application buffer → GPU cache
	c.mark(ck.att, metrics.CompCopyD2D)
	c.mustTransition(ck, rep, lifecycle.WriteComplete)
	c.lifecycle(id, trace.LCached, "gpu", "")

	// Hand off to T_D2H and return control to the application.
	c.mu.Lock()
	ck.enqueuedD2H = true
	c.d2hQ.push(id)
	c.bumpLocked()
	c.mu.Unlock()
	c.notifyGPU()
	c.lifecycle(id, trace.LFlushEnqueued, "", "d2h")

	c.rec.Checkpoint(ck.size, c.clk.Now()-start)
	return nil
}

// syncFlush is the §2 condition-4 fallback taken when a checkpoint
// cannot land in the GPU cache: the write blocks while the data streams
// straight down the tier chain. It prefers the host cache (so the
// normal async H2F chain finishes the job) and otherwise flushes
// GPU→SSD (or GPU→PFS under SSD degradation) synchronously.
func (c *Client) syncFlush(ck *checkpoint, gpuRep *replica, start time.Duration) error {
	c.rec.SyncFlush()
	// The failed GPU reservation above may have blocked on evictions
	// before reporting too-large; absorb that into the admit component.
	c.mark(ck.att, metrics.CompGPUAdmit)
	// A Restore racing this write parks on gpuRep or finds no record: no
	// tier holds the bytes until they land, and ck.writing makes it wait.
	c.unlinkReplica(ck, TierGPU, gpuRep)

	if !c.p.GPUDirectStorage && !c.tierDegraded(TierHost) && ck.size <= c.p.HostCacheSize {
		c.waitHostReady()
		c.mark(ck.att, metrics.CompHostReady)
		hostRep := &replica{tier: TierHost, fsm: lifecycle.NewMachine(c.clk)}
		c.mu.Lock()
		c.setReplicaLocked(ck, TierHost, hostRep)
		c.mu.Unlock()
		_, err := c.hstC.Reserve(c.hostKey(ck.id), ck.size)
		switch err {
		case nil:
			c.mark(ck.att, metrics.CompHostAdmit)
			c.mustTransition(ck, hostRep, lifecycle.WriteInProgress)
			if c.p.OnDemandAlloc {
				c.p.GPU.AllocPinnedHost(ck.size)
				c.mark(ck.att, metrics.CompAlloc)
			}
			cpErr := c.copyD2HHost(ck, ck.att)
			if cpErr == nil {
				c.healTier(TierHost)
				c.mustTransition(ck, hostRep, lifecycle.WriteComplete)
				c.hstC.Notify()
				c.enqueueH2F(ck)
				c.rec.Checkpoint(ck.size, c.clk.Now()-start)
				return nil
			}
			// PCIe toward the host is dead: release the reservation and
			// try the deeper route (which will fail too if PCIe itself is
			// the problem — surfaced below). A dying client skips the
			// degradation — that is a shutdown, not a tier fault.
			c.dropReplica(ck, TierHost, hostRep)
			if !isShutdownErr(cpErr) {
				c.degradeTier(TierHost)
			}
		case cachebuf.ErrClosed:
			c.mu.Lock()
			delete(c.ckpts, ck.id)
			c.mu.Unlock()
			c.rec.CheckpointRejected(ck.size)
			return ErrClosed
		default:
			// Too large for the host cache too: go deeper.
			c.unlinkReplica(ck, TierHost, hostRep)
		}
	}

	if err := c.directToSSD(ck, true, ck.att); err != nil {
		c.mu.Lock()
		delete(c.ckpts, ck.id)
		c.bumpLocked()
		c.mu.Unlock()
		c.rec.CheckpointRejected(ck.size)
		return fmt.Errorf("core: checkpoint %d: synchronous flush: %w", ck.id, err)
	}
	c.rec.Checkpoint(ck.size, c.clk.Now()-start)
	return nil
}

// RestoreSize returns the size of a previously written checkpoint
// (VELOC_Recover_size).
func (c *Client) RestoreSize(id ID) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ck, ok := c.ckpts[id]
	if !ok {
		return 0, ErrUnknownCheckpoint
	}
	return ck.size, nil
}

// PrefetchEnqueue appends a hint about the next checkpoint the process
// intends to restore (§4.1.1). Hints may be enqueued at any time,
// interleaved with checkpoints and restores, and cannot be revoked.
func (c *Client) PrefetchEnqueue(id ID) {
	c.mu.Lock()
	pos := c.q.enqueue(id)
	if ck := c.ckpts[id]; ck != nil && ck.hintLocked() == cachebuf.NoHint {
		ck.setHintLocked(pos)
	}
	c.bumpLocked()
	c.mu.Unlock()
}

// PrefetchStart activates the prefetcher; useful to avoid interference
// with the flushes of a forward pass (Listing 1).
func (c *Client) PrefetchStart() {
	c.mu.Lock()
	c.started = true
	c.bumpLocked()
	c.mu.Unlock()
}

// Hinted returns the number of pending (unconsumed) hints.
func (c *Client) Hinted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.pending()
}

// Restore reads back checkpoint id into the application's device buffer,
// blocking until the data is available on the GPU. The returned payload
// is the one passed to Checkpoint.
func (c *Client) Restore(id ID) (payload.Payload, error) {
	start := c.clk.Now()

	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return nil, ErrKilled
	}
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	ck, ok := c.ckpts[id]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknownCheckpoint
	}
	iter := c.restoreIter
	c.restoreIter++
	pfDist := c.prefetchDistanceLocked(id)
	c.mu.Unlock()

	att := newAttrib(metrics.CritRestore, int64(id), start)
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackApp, "restore",
			fmt.Sprintf("restore %d", id), c.flowID(id))()
	}

	for {
		served, err := c.tryServeFromGPU(ck, att)
		if err != nil {
			return nil, err
		}
		if served {
			break
		}
		// Not on the GPU: promote (or bypass the caches if they are
		// saturated with pinned prefetches — deviating reads must not
		// deadlock, they just pay a penalty, §4.1.1).
		done, err := c.promoteOrBypass(ck, att)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}

	// Consumption: pop the hint, record deviation, mark consumed.
	c.mu.Lock()
	deviated := c.consumeHintLocked(ck)
	ck.consumed = true
	c.rescoreLocked(ck)
	c.releaseStagedLocked(ck)
	c.bumpLocked()
	c.mu.Unlock()
	if deviated {
		c.rec.Deviation()
	}
	// Consumed replicas become evictable; wake blocked reservations.
	c.notifyGPU()
	c.hstC.Notify()

	// Restore then CritPath: the record count must never lead the op
	// count, so the running invariant holds at every instant.
	end := c.clk.Now()
	c.rec.Restore(iter, ck.size, end-start, pfDist)
	crit := att.finish(end)
	c.rec.CritPath(crit)
	if c.p.SLO != nil {
		c.p.SLO.ObserveCritPath(crit)
	}
	c.lifecycle(id, trace.LRestored, "", "")
	return ck.pay, nil
}

// tryServeFromGPU claims the GPU replica (pinning it READ_COMPLETE under
// the buffer lock so eviction cannot race), copies it to the application
// buffer, and marks it CONSUMED. Returns served=false if the checkpoint
// has no readable GPU replica.
func (c *Client) tryServeFromGPU(ck *checkpoint, att *attrib) (served bool, err error) {
	c.mu.Lock()
	rep := ck.replicas[TierGPU]
	c.mu.Unlock()
	if rep == nil {
		return false, nil
	}

	switch rep.fsm.State() {
	case lifecycle.Init, lifecycle.WriteInProgress:
		// Another thread's write is landing; wait for it.
		rep.fsm.WaitFor(lifecycle.WriteComplete, lifecycle.Flushed,
			lifecycle.ReadComplete, lifecycle.Consumed)
	case lifecycle.ReadInProgress:
		// A promotion is in flight; wait for the data.
		rep.fsm.WaitFor(lifecycle.ReadComplete, lifecycle.Consumed)
	}
	c.mark(att, metrics.CompGPUWait)
	if !rep.hasData() {
		// The write or promotion backed out and unlinked the record
		// (unlinkReplica released the wait): promote instead.
		return false, nil
	}

	claim := func() {
		// WRITE_COMPLETE/FLUSHED/CONSUMED → READ_COMPLETE pins the
		// replica for the duration of the copy-out (Fig. 1).
		if rep.fsm.State() != lifecycle.ReadComplete {
			c.mustTransition(ck, rep, lifecycle.ReadComplete)
		}
	}
	claimed := c.gpuC.IfResident(cachebuf.ID(ck.id), claim)
	if !claimed && c.gpuP != nil {
		claimed = c.gpuP.IfResident(cachebuf.ID(ck.id), claim)
	}
	if claimed {
		c.gpuC.Touch(cachebuf.ID(ck.id)) // recency signal for LRU ablation
	}
	if !claimed {
		return false, nil // evicted underneath us; promote instead
	}
	c.p.GPU.CopyD2D(ck.size) // GPU cache → application buffer
	c.mark(att, metrics.CompCopyD2D)
	c.mustTransition(ck, rep, lifecycle.Consumed)
	return true, nil
}

// prefetchDistanceLocked implements the §5.4.4 metric: the number of
// successor checkpoints (per the hint queue, beyond the one being
// restored) already readable on the GPU cache at the moment of a read.
func (c *Client) prefetchDistanceLocked(current ID) int {
	dist := 0
	for i := 0; ; i++ {
		id, ok := c.q.at(i)
		if !ok {
			break
		}
		if id == current {
			continue
		}
		ck := c.ckpts[id]
		if ck == nil || !ck.dataOn(TierGPU) {
			break
		}
		dist++
	}
	return dist
}

// WaitFlush blocks until the asynchronous flush chain has fully drained —
// the "restore phase waits for checkpoint phase" scenario of §5.4.2.
func (c *Client) WaitFlush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.d2hQ.len() > 0 || c.h2fQ.len() > 0 || c.d2hBusy > 0 || c.h2fBusy > 0 || c.drainActive {
		if c.killed {
			return ErrKilled
		}
		if c.closed {
			return ErrClosed
		}
		if c.err != nil {
			return c.err
		}
		c.cond.Wait()
	}
	return c.err
}

// Resident reports how many checkpoints are currently cached on each tier
// (diagnostics).
func (c *Client) Resident() (gpu, host int) {
	gpu = c.gpuC.Resident()
	if c.gpuP != nil {
		gpu += c.gpuP.Resident()
	}
	return gpu, c.hstC.Resident()
}
