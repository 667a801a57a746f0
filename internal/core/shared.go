package core

import (
	"fmt"
	"sync"
	"time"

	"score/internal/cachebuf"
	"score/internal/simclock"
)

// nsShift positions the client namespace above the checkpoint version in
// a shared cache key; versions must stay below 2^40.
const nsShift = 40
const nsMask = 1<<nsShift - 1 // the version bits of a key

// SharedHostCache implements the paper's first future-work item ("share
// the host cache across different processes and nodes to load balance
// variable-sized checkpoints"): one pinned host cache pool serving every
// co-located client. Each client's checkpoints are namespaced inside the
// shared buffer, and the gap-aware eviction policy sees all of them at
// once — a client with large checkpoints can borrow capacity a client
// with small ones does not need.
type SharedHostCache struct {
	buf       *cachebuf.Buffer
	router    *routerOracle
	createdAt time.Duration
	pinChunk  int64 // bytes each participating process pins in parallel
}

// NewSharedHostCache creates a pool of the given capacity on clk. The
// pool's pinned registration is charged once, overlapped with the run:
// the participating processes pin it in parallel chunks (one chunk per
// expected client), so the pool becomes usable when the slowest chunk
// finishes — the same per-process registration time a private cache of
// capacity/clients would cost.
func NewSharedHostCache(clk simclock.Clock, name string, capacity int64) *SharedHostCache {
	return NewSharedHostCachePinnedBy(clk, name, capacity, 8)
}

// NewSharedHostCachePinnedBy is NewSharedHostCache with an explicit
// number of parallel pinning processes.
func NewSharedHostCachePinnedBy(clk simclock.Clock, name string, capacity int64, pinners int) *SharedHostCache {
	if pinners < 1 {
		pinners = 1
	}
	r := &routerOracle{}
	s := &SharedHostCache{router: r, createdAt: clk.Now()}
	s.buf = cachebuf.NewFromEntries(clk, name, capacity, r)
	s.pinChunk = (capacity + int64(pinners) - 1) / int64(pinners)
	return s
}

// Capacity returns the pool capacity in bytes.
func (s *SharedHostCache) Capacity() int64 { return s.buf.Capacity() }

// Resident returns the number of checkpoints cached across all clients.
func (s *SharedHostCache) Resident() int { return s.buf.Resident() }

// Close unblocks all waiters; call once every participating client is
// closed.
func (s *SharedHostCache) Close() { s.buf.Close() }

// register adds a client and returns its namespace.
func (s *SharedHostCache) register(c *Client) int64 {
	return s.router.register(&c.oracles[TierHost])
}

// routerOracle demultiplexes the shared buffer's entry lookups and eviction
// notices to the owning client's host-tier oracle by namespace. A key is
// resolved once, at placement: a scan of the pool takes no client's lock.
type routerOracle struct {
	mu      sync.Mutex
	clients []*tierOracle // indexed by namespace; append-only
}

func (r *routerOracle) register(o *tierOracle) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clients = append(r.clients, o)
	return int64(len(r.clients) - 1)
}

func (r *routerOracle) registered() []*tierOracle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients
}

func (r *routerOracle) route(id cachebuf.ID) (*tierOracle, cachebuf.ID) {
	clients := r.registered()
	ns := int64(id) >> nsShift
	if ns >= int64(len(clients)) {
		return nil, 0
	}
	return clients[ns], cachebuf.ID(int64(id) & nsMask)
}

// Entry implements cachebuf.EntrySource; a key of no registered namespace
// has no record.
func (r *routerOracle) Entry(id cachebuf.ID) (*cachebuf.Entry, *cachebuf.Source) {
	o, local := r.route(id)
	if o == nil {
		return nil, nil
	}
	return o.Entry(local)
}

// Evicted implements cachebuf.EntrySource.
func (r *routerOracle) Evicted(id cachebuf.ID) {
	o, local := r.route(id)
	if o == nil {
		return
	}
	o.Evicted(local)
}

// hostKey maps a checkpoint id to its key in the host cache buffer
// (namespaced when the cache is shared).
func (c *Client) hostKey(id ID) cachebuf.ID {
	if c.hostNS >= 0 {
		if int64(id) >= 1<<nsShift {
			panic(fmt.Sprintf("core: checkpoint id %d exceeds shared-cache namespace capacity", id))
		}
		return cachebuf.ID(c.hostNS<<nsShift | int64(id))
	}
	return cachebuf.ID(id)
}
