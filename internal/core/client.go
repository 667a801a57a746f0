package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"score/internal/cachebuf"
	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/simclock"
	"score/internal/slab"
	"score/internal/trace"
)

// Client is the Score runtime instance for one process (one GPU). It
// exposes the VELOC-style API the paper extends: Checkpoint (blocking only
// for the copy into the GPU cache), Restore, PrefetchEnqueue and
// PrefetchStart (the new primitives of §4.3), plus WaitFlush to drain the
// asynchronous flush chain.
//
// The application's calls and the client's workers are tasks of one
// clock, which runs one at a time and switches only where a task blocks,
// so the client takes no lock: the code between two blocking calls is a
// critical section already.
type Client struct {
	p    Params
	deep []deepTier  // the tiers below the host cache, fastest first (deep.go)
	pcie fabric.Path // the GPU's PCIe link alone: a stream to or from the host cache
	clk  *simclock.Virtual
	rec  *metrics.Recorder
	gpuC *cachebuf.Buffer // device cache (write side when SplitCache)
	gpuP *cachebuf.Buffer // prefetch-side device cache (SplitCache only)
	hstC *cachebuf.Buffer // pinned host cache

	cond simclock.Cond

	ckpts    map[ID]*checkpoint
	records  slab.Slab[checkpoint] // every version's record is cut from it
	replicas slab.Slab[replica]    // newReplica cuts records from it
	q        restoreQueue
	oracles  [TierHost + 1]tierOracle // the cache tiers' eviction-entry sources
	wake     [TierHost + 1]bool       // cache tiers a rescore unblocked; sendWakes sends them
	started  bool                     // prefetcher activated
	closed   bool
	killed   bool  // the rank died (fault injection); implies closed soon
	err      error // first asynchronous failure

	d2h, h2f flushPool  // the T_D2H and T_H2F stages
	inFlight map[ID]int // flush workers that currently own each version

	writersBusy int       // Checkpoint calls past the admission gate
	drain       *drainRun // set once, at a preemption notice; no new checkpoints after

	flushStreams int // workers per flusher stage pool

	hostReadyAt time.Duration // pinned host cache registration completes
	hostNS      int64         // namespace in a shared host cache; -1 = private
	restoreIter int
	stagedBytes int64  // host-stager budget accounting
	events      uint64 // progress generation: bumped on real state changes
	pfSeen      uint64 // events when the prefetcher last found its hint blocked
	stSeen      uint64 // events when the host stager last failed to stage

	// The predicates the prefetcher, the host stager and WaitFlush park on
	// with c.cond.WaitFor, built once in New so a wait allocates nothing.
	startedOrClosed func() bool
	hintPastCursor  func() bool // a hint the prefetcher has not reached yet
	hintPending     func() bool // an unconsumed hint
	pfProgressed    func() bool
	stProgressed    func() bool
	flushSettled    func() bool // WaitFlush has an answer
	h2fIdle         func() bool // a drain round's flushes are done

	degraded   [TierPFS + 1]bool          // tiers marked persistently failed
	degradedAt [TierPFS + 1]time.Duration // when each mark was (last) set

	rnd *rand.Rand // retry jitter; seeded by its first use (jitter), for deterministic replays

	daemons *simclock.WaitGroup
	// hedgeWG tracks every leg of a deadline race (hedge.go), in either
	// direction, including legs still in flight after their race was
	// decided; Close joins it so no leg outlives the client. The first
	// leg builds it.
	hedgeWG *simclock.WaitGroup
}

// New creates and starts a Client. The caller must Close it to stop the
// background flusher and prefetcher tasks.
func New(p Params) (*Client, error) {
	p.Retry = p.Retry.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	c := &Client{
		p:        p,
		clk:      p.Clock,
		rec:      metrics.NewRecorder(),
		ckpts:    make(map[ID]*checkpoint, slab.Block),
		inFlight: make(map[ID]int),
	}
	c.deep, c.pcie = deepTiers(p)
	c.cond = c.clk.NewCond(nil)
	c.startedOrClosed = func() bool { return c.started || c.closed }
	c.hintPastCursor = func() bool { return c.closed || c.q.prefetchPending() }
	c.hintPending = func() bool { return c.closed || c.q.pending() > 0 }
	c.pfProgressed = func() bool { return c.closed || c.events != c.pfSeen }
	c.stProgressed = func() bool { return c.closed || c.events != c.stSeen }
	c.flushSettled = func() bool {
		return !c.flushBusy() || c.killed || c.closed || c.err != nil
	}
	c.h2fIdle = func() bool { return c.h2f.q.Len() == 0 && c.h2f.busy == 0 }
	c.d2h.cond = c.clk.NewCond(nil)
	c.h2f.cond = c.clk.NewCond(nil)
	c.daemons = simclock.NewWaitGroup(c.clk)

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
		c.gpuC = cachebuf.NewFromEntries(c.clk, cacheName(p.GPU.ID(), "writecache"), half, gpuOracle)
		c.gpuP = cachebuf.NewFromEntries(c.clk, cacheName(p.GPU.ID(), "readcache"), half, gpuOracle)
	} else {
		c.gpuC = cachebuf.NewFromEntries(c.clk, cacheName(p.GPU.ID(), "cache"),
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
	// pool serves several clients and cannot attribute its stalls. One
	// method value serves them all.
	evictionWait := c.rec.EvictionWait
	c.gpuC.SetWaitObserver(evictionWait)
	if c.gpuP != nil {
		c.gpuP.SetWaitObserver(evictionWait)
	}
	c.hostNS = -1
	if p.SharedHost != nil {
		c.hstC = p.SharedHost.buf
		c.hostNS = p.SharedHost.register(c)
		p.HostCacheSize = p.SharedHost.Capacity()
		c.p.HostCacheSize = p.HostCacheSize
	} else {
		c.hstC = cachebuf.NewFromEntries(c.clk, cacheName(p.GPU.ID(), "hostcache"),
			p.HostCacheSize, &c.oracles[TierHost])
		c.hstC.SetWaitObserver(evictionWait)
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
		c.clk.Go(func() { defer c.daemons.Done(); c.flusher(&c.d2h, c.runD2H) })
		c.clk.Go(func() { defer c.daemons.Done(); c.flusher(&c.h2f, c.runH2F) })
	}
	c.clk.Go(func() { defer c.daemons.Done(); c.prefetcher() })
	c.clk.Go(func() { defer c.daemons.Done(); c.hostStager() })
	return c, nil
}

// cacheName is a client cache's name, "gpu<id>-<kind>", which cachebuf's
// errors and panics print. It is built in one allocation: fmt would box
// a GPU ID above 255 as well.
func cacheName(gpu int, kind string) string {
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], "gpu"...), int64(gpu), 10)
	return string(append(append(b, '-'), kind...))
}

// recoverFromStore rebuilds the checkpoint table from the durable
// stores: every valid stored checkpoint reappears as a FLUSHED replica
// on the tier(s) whose store holds it (SSD, partner SSD, PFS, or any
// combination), restorable through the normal promotion path with tier
// fallback. New calls it before the client is published.
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
				ck = c.records.New()
				*ck = checkpoint{id: ID(id), size: size, pay: payload.FromSource(size,
					&storePayload{clk: c.clk, deep: c.deep, rec: c.rec, id: id})}
				c.ckpts[ck.id] = ck
			}
			rep := c.newReplica(d.tier)
			rep.fsm.MustTo(lifecycle.WriteInProgress)
			rep.fsm.MustTo(lifecycle.WriteComplete)
			rep.fsm.MustTo(lifecycle.Flushed)
			ck.replicas[d.tier] = rep
		}
	}
}

// newClientHook, when a _test.go sets it, sees every client New builds
// before its tasks start; production code never sets it.
var newClientHook func(c *Client)

// Recovered returns the versions restored from the durable store at
// construction, in ascending order.
func (c *Client) Recovered() []ID {
	var out []ID
	for id, ck := range c.ckpts {
		if ck.recovered() {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// bump records real progress (a flush completed, a checkpoint was
// consumed, a hint arrived, a promotion landed) and wakes every task parked
// on c.cond; idle flush workers park on their pool's own cond instead
// (flushPool). The prefetcher, the host stager and WaitFlush park with
// WaitFor, so a bump that leaves their predicate false readies them but
// the clock files them back without resuming them. Retry loops key off the
// generation counter, so spurious wakeups (e.g. a peer clearing its
// in-flight flag after a failed attempt) do not trigger fruitless
// re-attempts — the discipline that prevents broadcast ping-pong livelock
// under the virtual clock.
func (c *Client) bump() {
	c.events++
	c.cond.Broadcast()
}

// forget drops ck's record, a write that failed, and its hint slots.
func (c *Client) forget(ck *checkpoint) {
	delete(c.ckpts, ck.id)
	c.q.unlink(ck)
}

// releaseStaged returns ck's bytes to the stager budget once its
// staged host copy has served its purpose.
func (c *Client) releaseStaged(ck *checkpoint) {
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
	if c.closed {
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.releaseFlushers()
	c.gpuC.Close()
	if c.gpuP != nil {
		c.gpuP.Close()
	}
	if c.hostNS < 0 {
		c.hstC.Close() // a shared pool stays open for the other clients
	}
	c.daemons.Wait()
	// Race legs still running after their decision (a restore's losing
	// read, a stalled SSD write or a reroute that lands second) finish on
	// their own in bounded virtual time; join them so nothing references
	// the client after Close returns.
	if c.hedgeWG != nil {
		c.hedgeWG.Wait()
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
	return c.err
}

func (c *Client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
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

	if c.killed {
		return ErrKilled
	}
	if c.closed {
		return ErrClosed
	}
	if c.drain != nil {
		// A preemption drain began: the rank is being reclaimed and
		// accepts no new state (the notice is never revoked).
		return ErrDraining
	}
	if _, dup := c.ckpts[id]; dup {
		return ErrDuplicateCheckpoint
	}
	c.writersBusy++
	ck := c.records.New()
	*ck = checkpoint{
		id:        id,
		size:      pay.Size(),
		pay:       pay,
		writing:   true,
		writtenAt: start,
		durable:   attrib{op: metrics.CritDurable, version: int64(id), start: start, last: start},
	}
	ck.att = &ck.durable
	rep := c.newReplica(TierGPU)
	// Hints may precede the write (Listing 1): pick up one already pending.
	ck.setHint(c.q.firstPending(id))
	c.setReplica(ck, TierGPU, rep)
	c.ckpts[id] = ck
	defer func() {
		c.writersBusy--
		ck.writing = false
		c.bump()
	}()
	c.rec.CheckpointAccepted(ck.size)
	c.lifecycle(id, trace.LCreated, "", "")

	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackApp, "checkpoint",
			"checkpoint", int64(id), c.flowID(id)).End()
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
		c.forget(ck)
		c.rec.CheckpointRejected(ck.size)
		if err == cachebuf.ErrClosed {
			return ErrClosed
		}
		return fmt.Errorf("core: checkpoint %d: GPU cache reservation: %w", id, err)
	}
	c.mark(ck.att, metrics.GPUAdmit)

	c.mustTransition(ck, rep, lifecycle.WriteInProgress)
	if c.p.OnDemandAlloc {
		// §4.1.4 ablation: a fresh device region is allocated for each
		// checkpoint instead of reusing the pre-allocated buffer.
		c.p.GPU.ChargeDeviceAlloc(ck.size)
		c.mark(ck.att, metrics.Alloc)
	}
	c.p.GPU.CopyD2D(ck.size) // application buffer → GPU cache
	c.mark(ck.att, metrics.CopyD2D)
	c.mustTransition(ck, rep, lifecycle.WriteComplete)
	c.lifecycle(id, trace.LCached, "gpu", "")

	// Hand off to T_D2H and return control to the application. After a
	// drain's notice the triage owns the version instead.
	enq := c.drain == nil
	if enq {
		c.d2h.push(id)
	}
	c.bump()
	if enq {
		c.lifecycle(id, trace.LFlushEnqueued, "", "d2h")
	}

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
	c.mark(ck.att, metrics.GPUAdmit)
	// A Restore racing this write parks on gpuRep or finds no record: no
	// tier holds the bytes until they land, and ck.writing makes it wait.
	c.unlinkReplica(ck, TierGPU, gpuRep)

	if !c.p.GPUDirectStorage && !c.tierDegraded(TierHost) && ck.size <= c.p.HostCacheSize {
		c.waitHostReady()
		c.mark(ck.att, metrics.HostReady)
		switch landing, _ := c.landOnHost(ck, ck.att); landing {
		case hostLanded:
			c.enqueueH2F(ck)
			c.rec.Checkpoint(ck.size, c.clk.Now()-start)
			return nil
		case hostClosed:
			c.forget(ck)
			c.rec.CheckpointRejected(ck.size)
			return ErrClosed
		}
		// Bypassed, or the rank died mid-copy: the deeper route decides
		// (it fails too if PCIe itself is the problem, or on shutdown).
	}

	if err := c.flushDeep(ck, true, ck.att); err != nil {
		c.forget(ck)
		c.bump()
		c.rec.CheckpointRejected(ck.size)
		return fmt.Errorf("core: checkpoint %d: synchronous flush: %w", ck.id, err)
	}
	c.rec.Checkpoint(ck.size, c.clk.Now()-start)
	return nil
}

// RestoreSize returns the size of a previously written checkpoint
// (VELOC_Recover_size).
func (c *Client) RestoreSize(id ID) (int64, error) {
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
	pos := c.q.enqueue(id)
	if ck := c.ckpts[id]; ck != nil && ck.hint() == cachebuf.NoHint {
		ck.setHint(pos)
	}
	c.bump()
}

// PrefetchStart activates the prefetcher; useful to avoid interference
// with the flushes of a forward pass (Listing 1).
func (c *Client) PrefetchStart() {
	c.started = true
	c.bump()
}

// Restore reads back checkpoint id into the application's device buffer,
// blocking until the data is available on the GPU. The returned payload
// is the one passed to Checkpoint.
func (c *Client) Restore(id ID) (payload.Payload, error) {
	start := c.clk.Now()

	if c.killed {
		return payload.Payload{}, ErrKilled
	}
	if c.closed {
		return payload.Payload{}, ErrClosed
	}
	ck, ok := c.ckpts[id]
	if !ok {
		return payload.Payload{}, ErrUnknownCheckpoint
	}
	iter := c.restoreIter
	c.restoreIter++
	pfDist := c.prefetchDistance(id)

	att := newAttrib(metrics.CritRestore, int64(id), start)
	if tr := c.p.Tracer; tr != nil {
		defer tr.SpanFlow(c.p.GPU.ID(), trace.TrackApp, "restore",
			"restore", int64(id), c.flowID(id)).End()
	}

	for {
		served, err := c.tryServeFromGPU(ck, att)
		if err != nil {
			return payload.Payload{}, err
		}
		if served {
			break
		}
		// Not on the GPU: promote (or bypass the caches if they are
		// saturated with pinned prefetches — deviating reads must not
		// deadlock, they just pay a penalty, §4.1.1).
		done, err := c.promoteOrBypass(ck, att)
		if err != nil {
			return payload.Payload{}, err
		}
		if done {
			break
		}
	}

	// Consumption: pop the hint, record deviation, mark consumed.
	deviated := c.consumeHint(ck)
	ck.consumed = true
	c.rescore(ck)
	c.releaseStaged(ck)
	c.bump()
	c.sendWakes() // a consumed, discardable replica is no longer kept
	if deviated {
		c.rec.Deviation()
	}

	// Restore then CritPath: the record count must never lead the op
	// count, so the running invariant holds at every instant.
	end := c.clk.Now()
	c.rec.Restore(iter, ck.size, end-start, pfDist)
	crit := att.finish(end)
	c.rec.Attribute(crit)
	if c.p.SLO != nil {
		c.p.SLO.ObserveAttribution(crit)
	}
	c.lifecycle(id, trace.LRestored, "", "")
	return ck.pay, nil
}

// tryServeFromGPU claims the GPU replica (pinning it READ_COMPLETE while
// it is resident, so eviction cannot race), copies it to the application
// buffer, and marks it CONSUMED. Returns served=false if the checkpoint
// has no readable GPU replica.
func (c *Client) tryServeFromGPU(ck *checkpoint, att *attrib) (served bool, err error) {
	rep := ck.replicas[TierGPU]
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
	c.mark(att, metrics.GPUWait)
	if !rep.hasData() {
		// The write or promotion backed out and unlinked the record
		// (unlinkReplica released the wait): promote instead.
		return false, nil
	}

	// WRITE_COMPLETE/FLUSHED/CONSUMED → READ_COMPLETE pins the replica
	// for the duration of the copy-out (Fig. 1).
	_, _, resident := c.gpuC.Contains(cachebuf.ID(ck.id))
	if !resident && c.gpuP != nil {
		_, _, resident = c.gpuP.Contains(cachebuf.ID(ck.id))
	}
	if !resident || !c.claimForRead(ck, rep) {
		return false, nil // evicted underneath us; promote instead
	}
	c.gpuC.Touch(cachebuf.ID(ck.id)) // recency signal for LRU ablation
	c.p.GPU.CopyD2D(ck.size)         // GPU cache → application buffer
	c.mark(att, metrics.CopyD2D)
	// A second reader may have shared the claim during the copy-out and
	// consumed the replica first.
	c.tryTransition(ck, rep, lifecycle.Consumed)
	return true, nil
}

// prefetchDistance implements the §5.4.4 metric: the number of
// successor checkpoints (per the hint queue, beyond the one being
// restored) already readable on the GPU cache at the moment of a read.
func (c *Client) prefetchDistance(current ID) int {
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
	c.cond.WaitFor(c.flushSettled)
	if c.flushBusy() {
		switch {
		case c.killed:
			return ErrKilled
		case c.closed:
			return ErrClosed
		}
	}
	return c.err
}

// flushBusy reports whether the flush chain still holds work: a
// queued or running flush job, or a preemption drain's triage.
func (c *Client) flushBusy() bool {
	return c.d2h.q.Len() > 0 || c.h2f.q.Len() > 0 || c.d2h.busy > 0 || c.h2f.busy > 0 || c.drain != nil && c.drain.active
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
