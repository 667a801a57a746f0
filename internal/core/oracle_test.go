package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"score/internal/cachebuf"
	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/rtm"
	"score/internal/simclock"
)

// entryWant is what one tier's entry must decode to.
type entryWant struct {
	pinned, evictable, estimate bool
	hint                        int
}

func decodeEntry(e *cachebuf.Entry) entryWant {
	f := e.Flags()
	return entryWant{f&cachebuf.Pinned != 0, f&cachebuf.Kept == 0, f&cachebuf.Estimate != 0, e.Hint()}
}

// ruleEntry restates the eviction rule the way the pull oracle spelled it —
// Evictable's safety condition and the per-state case analysis of the
// score, a linear scan of the pending hints for the position — from the
// records alone. Caller holds c.mu.
func ruleEntry(c *Client, ck *checkpoint, tier Tier) entryWant {
	w := entryWant{hint: cachebuf.NoHint}
	for i := c.q.head; i < len(c.q.hints); i++ {
		if c.q.hints[i] == ck.id {
			w.hint = i
			break
		}
	}
	if ck.replicas[tier] == nil {
		w.evictable = true // unlinked: a stale fragment, unpinned with p = 0
		return w
	}
	durable := false
	for t := tier + 1; t <= TierPFS; t++ {
		if r := ck.replicas[t]; r != nil && r.hasData() {
			durable = true
		}
	}
	discardable := (ck.consumed && c.p.DiscardAfterRestore) || ck.flushAborted
	safe := durable || discardable
	switch st := ck.replicas[tier].fsm.State(); st {
	case lifecycle.Flushed, lifecycle.Consumed:
		w.evictable = safe
		w.estimate = !durable && !discardable
	case lifecycle.WriteComplete:
		w.estimate = !discardable
	case lifecycle.ReadComplete:
		w.pinned = !c.p.NoPinning || !safe
		w.evictable = c.p.NoPinning && safe
	default:
		w.pinned = true
	}
	return w
}

// checkEntries compares every checkpoint's two entries, and both tiers'
// queue heads, with the restated rule.
func checkEntries(c *Client) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for tier := TierGPU; tier <= TierHost; tier++ {
		if got := c.oracles[tier].src.Head.Load(); got != int64(c.q.head) {
			return fmt.Errorf("%v tier: published queue head %d, the queue's is %d", tier, got, c.q.head)
		}
	}
	for id, ck := range c.ckpts {
		for tier := TierGPU; tier <= TierHost; tier++ {
			got := decodeEntry(&ck.entries[tier])
			if want := ruleEntry(c, ck, tier); got != want {
				return fmt.Errorf("checkpoint %d, %v tier: entry %+v, rule %+v", id, tier, got, want)
			}
		}
	}
	return nil
}

// checkedPolicy is a buffer's eviction policy with the comparison re-run,
// for every client the buffer serves, in front of every window choice.
type checkedPolicy struct {
	cachebuf.EvictionPolicy
	clients func() []*Client
}

func (p checkedPolicy) SelectWindow(v cachebuf.WindowView, sizeNew int64) (int, int, bool) {
	for _, c := range p.clients() {
		if err := checkEntries(c); err != nil {
			panic("eviction entries drifted from the rule: " + err.Error())
		}
	}
	return p.EvictionPolicy.SelectWindow(v, sizeNew)
}

// Every window scan of every cache of every client any test in this package
// creates runs under a checkedPolicy, so the ladder, fault, drain, kill and
// wedge tests police the completeness of the update sites too.
func init() {
	newClientHook = func(c *Client) {
		check := func(b *cachebuf.Buffer, pol cachebuf.Policy, clients func() []*Client) {
			ep, err := pol.NewPolicy()
			if err != nil {
				panic(err)
			}
			b.SetEvictionPolicy(checkedPolicy{ep, clients})
		}
		self := func() []*Client { return []*Client{c} }
		check(c.gpuC, c.p.GPUEvictionPolicy, self)
		if c.gpuP != nil {
			check(c.gpuP, c.p.GPUEvictionPolicy, self)
		}
		if c.hostNS < 0 {
			check(c.hstC, cachebuf.PolicyScore, self)
		} else if router := c.p.SharedHost.router; c.hostNS == 0 { // the pool's first client installs for all
			check(c.hstC, cachebuf.PolicyScore, func() (all []*Client) {
				for _, o := range router.registered() {
					all = append(all, o.c)
				}
				return all
			})
		}
	}
}

// TestEntriesEqualTheRule drives seeded random event sequences through two
// clients on one shared host cache — checkpoints (some too large for the
// GPU cache), partial flush progress, hints before and after the write and
// in duplicate, restores in and out of hint order, link outages that abort
// flushes and back promotions out (unlinking their records), cache
// pressure that evicts on both tiers, a rank kill — and after every event
// requires every entry to decode to exactly what the restated rule computes
// from the records. The scan hook repeats the comparison inside every scan
// the events cause.
//
// A sequence is a forward pass, a drain, then a backward pass with the
// prefetcher running and no more writes: a rank that keeps writing into
// caches its own unconsumed prefetches have pinned full waits forever, as
// designed (§2 condition 4). One trial in three gives the pool room for
// everything, so no write ever waits on it, and only those restore during
// the forward pass and kill a rank — each can leave the pool something no
// later event makes evictable
// (a staged copy pinned by a restore that bypassed the GPU cache, a host
// copy whose flush was skipped after a discarding restore, the windows a
// dead rank's flushers claimed), and a blocking write then waits forever.
// The smaller pools evict, and are sized so that two ranks' blocking
// reservations always find a window.
//
// Each of these fifteen mutations, tried one at a time, fails it: no
// rescore in transition; none in setReplicaLocked; a plain assignment in
// place of setReplicaLocked in Checkpoint, syncFlush, runD2H, reserveForRead
// or unlinkReplica; no rescore after `consumed = true`, in abortFlush or in
// finishKill; no hint pick-up in Checkpoint or in PrefetchEnqueue; and in
// consumeHintLocked no head store, no shift behind a mid-queue cut, no move
// to the duplicate hint. The three links that do assign plainly —
// deepReplica, recoverFromStore, Evicted — change nothing the rule reads,
// and say why where they do it.
func TestEntriesEqualTheRule(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for seed := int64(1); seed <= int64(trials) && !t.Failed(); seed++ {
		entriesTrial(t, seed)
	}
}

func entriesTrial(t *testing.T, seed int64) {
	const ids, events = 10, 70
	run(t, func(clk *simclock.Virtual) {
		rng := rand.New(rand.NewSource(seed))
		discard, thrash, roomy := rng.Intn(2) == 0, rng.Intn(4) == 0, rng.Intn(3) == 0
		pool := int64(14+rng.Intn(5)) * MB
		if roomy {
			pool = 64 * MB // nothing ever waits for host room
		}
		shared := NewSharedHostCache(clk, "node0-sharedhost", pool)
		r, c2 := sharedRigOn(t, clk, shared, func(p *Params) {
			p.DiscardAfterRestore, p.NoPinning = discard, thrash
		})
		clients := []*Client{r.client, c2}
		defer shared.Close()
		defer func() {
			for _, c := range clients {
				c.Close()
			}
		}()
		_, pcie := r.cluster.Nodes[0].GPULinks(0)
		links := []*fabric.Link{pcie, r.cluster.Nodes[0].NVMe, r.cluster.PFS}
		outage := func(i int, on bool) {
			if on {
				links[i].SetInterceptor(deadLink("outage"))
			} else {
				links[i].SetInterceptor(nil)
			}
		}
		drain := func() {
			for i := range links {
				outage(i, false)
			}
			for _, c := range clients {
				_ = c.WaitFlush() // a killed rank's reports ErrKilled
			}
		}
		defer drain()
		check := func(ev int, what string) {
			for k, c := range clients {
				if err := checkEntries(c); err != nil {
					t.Fatalf("seed %d, after event %d (%s): client %d: %v", seed, ev, what, k, err)
				}
			}
		}

		turn := events/4 + rng.Intn(events/2) // the first event of the backward pass
		next := [2]ID{}
		for ev := 0; ev < events; ev++ {
			if ev == turn {
				drain()
				for _, c := range clients {
					c.PrefetchStart()
				}
				check(ev, "drain and prefetch start")
			}
			k := rng.Intn(len(clients))
			c := clients[k]
			var what string
			switch x := rng.Intn(100); {
			case x < 35 && ev < turn && next[k] < ids:
				size := int64(1+rng.Intn(2)) * MB
				if rng.Intn(6) == 0 {
					size = 5 * MB // larger than the GPU cache: synchronous flush
				}
				what = fmt.Sprintf("client %d checkpoint %d (%d MB)", k, next[k], size/MB)
				// A write with every route below the GPU dead, or by a dead
				// rank, fails definitively; the version stays unwritten.
				if err := c.Checkpoint(next[k], pay(size)); err == nil {
					next[k]++
				} else if !errors.Is(err, ErrTierIO) && !errors.Is(err, ErrKilled) {
					t.Errorf("seed %d, event %d: %s: %v", seed, ev, what, err)
				}
			case x < 50:
				what = "flush and prefetch progress"
				clk.Sleep(time.Duration(1+rng.Intn(30)) * time.Millisecond)
			case x < 65:
				id := ID(rng.Intn(ids)) // written or not yet, hinted already or not
				what = fmt.Sprintf("client %d hint %d", k, id)
				c.PrefetchEnqueue(id)
			case x < 88 && next[k] > 0 && (ev >= turn || roomy):
				id := ID(rng.Intn(int(next[k])))
				c.mu.Lock()
				if head, ok := c.q.at(0); ok && head < next[k] && rng.Intn(2) == 0 {
					id = head // in hint order
				}
				c.mu.Unlock()
				what = fmt.Sprintf("client %d restore %d", k, id)
				if _, err := c.Restore(id); err != nil && !errors.Is(err, ErrLost) &&
					!errors.Is(err, ErrTierIO) && !errors.Is(err, ErrKilled) {
					t.Errorf("seed %d, event %d: %s: %v", seed, ev, what, err)
				}
			case x < 97:
				i, on := rng.Intn(len(links)), rng.Intn(3) > 0
				what = fmt.Sprintf("link %d outage = %v", i, on)
				outage(i, on)
			case k == 1 && roomy:
				what = "client 1 killed"
				c.Kill()
			default:
				continue
			}
			check(ev, what)
		}
	})
}

// TestBuffersAreHandedTheCheckpointsOwnEntries: what a buffer reads in
// place is the entry embedded in the checkpoint record, with the owning
// client's source — by plain id on a private tier, by namespace through
// the shared pool's router — and nothing for an id or a namespace nobody
// has a record of (a stale fragment).
func TestBuffersAreHandedTheCheckpointsOwnEntries(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r, c2, shared := sharedRig(t, clk, 16*MB)
		defer shared.Close()
		defer c2.Close()
		defer r.client.Close()
		for k, c := range []*Client{r.client, c2} {
			if err := c.Checkpoint(3, pay(MB)); err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			ck := c.ckpts[3]
			c.mu.Unlock()
			for tier := TierGPU; tier <= TierHost; tier++ {
				o := &c.oracles[tier]
				if e, src := o.Entry(3); e != &ck.entries[tier] || src != &o.src {
					t.Errorf("client %d, %v tier: Entry(3) is not the record's entry and the tier's source", k, tier)
				}
				if e, src := o.Entry(4); e != nil || src != nil {
					t.Errorf("client %d, %v tier: Entry of an unwritten version = %p, %p", k, tier, e, src)
				}
			}
			if e, src := shared.router.Entry(c.hostKey(3)); e != &ck.entries[TierHost] || src != &c.oracles[TierHost].src {
				t.Errorf("client %d: the router resolved key %d to another entry", k, c.hostKey(3))
			}
		}
		if e, _ := shared.router.Entry(cachebuf.ID(5<<nsShift | 3)); e != nil {
			t.Error("the router found an entry in a namespace nobody registered")
		}
	})
}

// TestEvictingShotScoresThroughTheBatchPath runs one rank of a scaled-down
// RTM shot (variable sizes, reverse hinted restore, several times either
// cache) and reads the counter the scan path exports: every scan read some
// fragments' entries, and no more than fit the cache.
func TestEvictingShotScoresThroughTheBatchPath(t *testing.T) {
	const gpuCache, hostCache = 8 * MB, 24 * MB
	cfg := rtm.DefaultTraceConfig()
	cfg.Snapshots, cfg.MeanSize = 48, 2*MB
	cfg.MinAggregate, cfg.MaxAggregate = 90*MB, 100*MB
	shot, err := rtm.GenerateShot(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	minSize := shot.MaxSize()
	for _, size := range shot.Sizes {
		minSize = min(minSize, size)
	}
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) {
			p.GPUCacheSize, p.HostCacheSize, p.DiscardAfterRestore = gpuCache, hostCache, true
		})
		defer r.client.Close()
		n := ID(len(shot.Sizes))
		for v := n - 1; v >= 0; v-- {
			r.client.PrefetchEnqueue(v)
		}
		for v := ID(0); v < n; v++ {
			if err := r.client.Checkpoint(v, pay(shot.Sizes[v])); err != nil {
				t.Fatal(err)
			}
			r.gpu.Compute(time.Millisecond)
		}
		r.client.PrefetchStart()
		for v := n - 1; v >= 0; v-- {
			if _, err := r.client.Restore(v); err != nil {
				t.Fatal(err)
			}
			r.gpu.Compute(time.Millisecond)
		}
		if err := r.client.Err(); err != nil {
			t.Fatal(err)
		}
		gpu, host := r.client.CacheStats()
		for _, c := range []struct {
			name     string
			st       cachebuf.Stats
			capacity int64
		}{{"gpu", gpu, gpuCache}, {"host", host, hostCache}} {
			if c.st.Evictions == 0 || c.st.WindowScans == 0 {
				t.Errorf("%s cache: %d evictions in %d scans; the shot does not evict", c.name, c.st.Evictions, c.st.WindowScans)
			}
			if most := c.st.WindowScans * (c.capacity / minSize); c.st.FragmentsScored == 0 || c.st.FragmentsScored > most {
				t.Errorf("%s cache: %d fragments scored in %d scans, want 1..%d", c.name, c.st.FragmentsScored, c.st.WindowScans, most)
			}
		}
	})
}

// TestScansTakeNoRuntimeLock fills both caches past capacity and then holds
// Client.mu across a scan of each: a scan that still took a runtime lock
// would never return.
func TestScansTakeNoRuntimeLock(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		c := r.client
		for v := ID(0); v < 24; v++ {
			c.PrefetchEnqueue(v)
			if err := c.Checkpoint(v, pay(MB)); err != nil {
				t.Fatal(err)
			}
		}
		scanned := make(chan struct{})
		c.mu.Lock()
		go func() {
			c.gpuC.ScoreSummary()
			c.hstC.ScoreSummary()
			close(scanned)
		}()
		select {
		case <-scanned:
		case <-time.After(10 * time.Second):
			t.Error("a scan did not finish while the test held Client.mu")
		}
		c.mu.Unlock()
		if gpu, host := c.CacheStats(); gpu.Evictions == 0 || host.Evictions == 0 {
			t.Errorf("the fill evicted %d and %d checkpoints; the test needs both caches full", gpu.Evictions, host.Evictions)
		}
	})
}
