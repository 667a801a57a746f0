package core

import (
	"math/rand"
	"testing"
	"time"

	"score/internal/cachebuf"
	"score/internal/lifecycle"
	"score/internal/rtm"
	"score/internal/simclock"
)

// referenceScore restates the eviction scoring rule the way the four
// single-id oracle methods spelled it before the batch call existed: a
// linear scan of the pending hints for the distance, and the per-state
// case analysis for the estimate. The property test compares the
// production rule against it.
func referenceScore(c *Client, tier Tier, id ID) cachebuf.Score {
	sc := cachebuf.Score{Distance: cachebuf.GapDistance - 1}
	for i := c.q.head; i < len(c.q.hints); i++ {
		if c.q.hints[i] == id {
			sc.Distance = i - c.q.head
			break
		}
	}
	ck := c.ckpts[id]
	if ck == nil || ck.replicas[tier] == nil {
		return sc
	}
	durable := false
	for t := tier + 1; t <= TierPFS; t++ {
		if r := ck.replicas[t]; r != nil && r.hasData() {
			durable = true
		}
	}
	discardable := (ck.consumed && c.p.DiscardAfterRestore) || ck.flushAborted
	var estimate time.Duration
	switch tier {
	case TierGPU:
		estimate = c.p.GPU.PCIeLink().Estimate(ck.size)
	case TierHost:
		estimate = c.p.NVMe.Estimate(ck.size)
	}
	switch ck.replicas[tier].fsm.State() {
	case lifecycle.Flushed, lifecycle.Consumed:
		if !durable && !discardable {
			sc.TimeToEvictable = estimate
		}
	case lifecycle.WriteComplete:
		if !discardable {
			sc.TimeToEvictable = estimate
		}
	case lifecycle.ReadComplete:
		sc.Pinned = !c.p.NoPinning || !(durable || discardable)
	default:
		sc.Pinned = true
	}
	return sc
}

// machineIn returns a life-cycle machine driven to state along a legal path.
func machineIn(clk simclock.Clock, state lifecycle.State) *lifecycle.Machine {
	paths := map[lifecycle.State][]lifecycle.State{
		lifecycle.Init:            nil,
		lifecycle.WriteInProgress: {lifecycle.WriteInProgress},
		lifecycle.WriteComplete:   {lifecycle.WriteInProgress, lifecycle.WriteComplete},
		lifecycle.Flushed:         {lifecycle.WriteInProgress, lifecycle.WriteComplete, lifecycle.Flushed},
		lifecycle.ReadInProgress:  {lifecycle.ReadInProgress},
		lifecycle.ReadComplete:    {lifecycle.ReadInProgress, lifecycle.ReadComplete},
		lifecycle.Consumed:        {lifecycle.ReadInProgress, lifecycle.ReadComplete, lifecycle.Consumed},
	}
	m := lifecycle.NewMachine(clk)
	for _, s := range paths[state] {
		m.MustTo(s)
	}
	return m
}

// randomizeOracleState replaces c's checkpoint table and restore queue
// with a random one: ids without a record, replicas on any subset of
// tiers in any life-cycle state (mid-write, prefetched-unconsumed, ...),
// consumed and flush-aborted versions, duplicate and partly consumed
// hints, and both eviction ablation switches.
func randomizeOracleState(c *Client, rng *rand.Rand, ids int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.p.NoPinning = rng.Intn(2) == 0
	c.p.DiscardAfterRestore = rng.Intn(2) == 0
	c.ckpts = map[ID]*checkpoint{}
	for id := ID(0); id < ID(ids); id++ {
		if rng.Intn(5) == 0 {
			continue // never written, or already forgotten
		}
		ck := &checkpoint{
			id: id, size: int64(1+rng.Intn(8)) * MB,
			consumed: rng.Intn(3) == 0, flushAborted: rng.Intn(6) == 0,
		}
		for tier := TierGPU; tier <= TierPFS; tier++ {
			if rng.Intn(2) == 0 {
				ck.replicas[tier] = &replica{tier: tier, fsm: machineIn(c.clk, lifecycle.State(rng.Intn(int(lifecycle.Consumed)+1)))}
			}
		}
		c.ckpts[id] = ck
	}
	c.q = restoreQueue{}
	for n := rng.Intn(3 * ids); n > 0; n-- {
		c.q.enqueue(ID(rng.Intn(ids)))
	}
	for n := rng.Intn(ids); n > 0; n-- {
		c.q.consume(ID(rng.Intn(ids))) // head hits, mid-queue removals and misses
	}
}

// TestBatchScoresEqualSingleScores is the batch contract: for random
// client states, ScoreFragments over a shuffled id list equals, field for
// field, the one-element answers of TimeToEvictable and PrefetchDistance
// and the reference rule — on each client's GPU and host tier oracles and
// through the router of a host cache two clients share, where one batch
// mixes both namespaces and a key nobody registered.
func TestBatchScoresEqualSingleScores(t *testing.T) {
	const ids = 24
	run(t, func(clk *simclock.Virtual) {
		r, c2, shared := sharedRig(t, clk, 16*MB)
		clients := []*Client{r.client, c2}
		defer func() {
			for _, c := range clients {
				c.mu.Lock()
				c.ckpts, c.q = map[ID]*checkpoint{}, restoreQueue{}
				c.mu.Unlock()
				c.Close()
			}
			shared.Close()
		}()
		rng := rand.New(rand.NewSource(16))

		check := func(what string, o cachebuf.BatchOracle, keys []cachebuf.ID, want func(cachebuf.ID) cachebuf.Score) {
			t.Helper()
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			out := make([]cachebuf.Score, len(keys))
			o.ScoreFragments(keys, out)
			for i, k := range keys {
				d, ok := o.TimeToEvictable(k)
				single := cachebuf.Score{TimeToEvictable: d, Pinned: !ok, Distance: o.PrefetchDistance(k)}
				if !ok {
					single.TimeToEvictable = out[i].TimeToEvictable // unspecified when pinned
				}
				if out[i] != single || out[i] != want(k) {
					t.Fatalf("%s, key %d: batch %+v, single %+v, reference %+v", what, k, out[i], single, want(k))
				}
			}
		}

		for trial := 0; trial < 200; trial++ {
			var sharedKeys []cachebuf.ID
			for ns, c := range clients {
				c := c
				randomizeOracleState(c, rng, ids)
				if int64(ns) != c.hostNS {
					t.Fatalf("client %d registered as namespace %d", ns, c.hostNS)
				}
				local := make([]cachebuf.ID, ids)
				for id := range local {
					local[id] = cachebuf.ID(id)
					sharedKeys = append(sharedKeys, c.hostKey(ID(id)))
				}
				for _, tier := range []Tier{TierGPU, TierHost} {
					tier := tier
					check(tier.String(), &tierOracle{c: c, tier: tier}, local, func(k cachebuf.ID) cachebuf.Score {
						return referenceScore(c, tier, ID(k))
					})
				}
			}
			sharedKeys = append(sharedKeys, cachebuf.ID(5<<nsShift|3))
			check("shared host", shared.router, sharedKeys, func(k cachebuf.ID) cachebuf.Score {
				ns := int(int64(k) >> nsShift)
				if ns >= len(clients) {
					return cachebuf.Score{Distance: cachebuf.GapDistance - 1}
				}
				return referenceScore(clients[ns], TierHost, ID(int64(k)&nsMask))
			})
		}
	})
}

// TestEvictingShotScoresThroughTheBatchPath runs one rank of a scaled-down
// RTM shot (variable sizes, reverse hinted restore, several times either
// cache) and reads the counter the batch path exports: every scan asked
// the oracle about some fragments, and about no more than fit the cache —
// the per-fragment path asked five times per fragment per scan.
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
