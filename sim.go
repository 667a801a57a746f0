package score

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"score/internal/cachebuf"
	"score/internal/ckptstore"
	"score/internal/core"
	"score/internal/fabric"
	"score/internal/faultinject"
	"score/internal/metrics"
	"score/internal/predict"
	"score/internal/simclock"
	"score/internal/testbed"
	"score/internal/trace"
)

// Clock is the time source visible to applications: simulated time only
// advances while tasks sleep or move data.
//
// Discipline: inside Sim.Run, start concurrent work with Clock.Go (not
// the go statement) and join it with a WaitGroup from Sim.NewWaitGroup
// (not raw channels) — the virtual clock can only advance time when it
// can see that every task is blocked.
type Clock interface {
	// Now returns the current simulated time since the Sim started.
	Now() time.Duration
	// Sleep suspends the calling task for d of simulated time (e.g. to
	// model computation between checkpoints).
	Sleep(d time.Duration)
	// Go starts fn as a simulated task (use instead of the go
	// statement inside Sim.Run).
	Go(fn func())
}

// WaitGroup joins simulated tasks; the virtual clock accounts for tasks
// blocked in Wait.
type WaitGroup struct{ inner *simclock.WaitGroup }

// Add adds delta to the counter.
func (w *WaitGroup) Add(delta int) { w.inner.Add(delta) }

// Done decrements the counter.
func (w *WaitGroup) Done() { w.inner.Done() }

// Wait blocks (in simulated time) until the counter reaches zero.
func (w *WaitGroup) Wait() { w.inner.Wait() }

// Sim is a simulated GPU cluster: one or more DGX-A100-like nodes sharing
// a parallel file system. All Score clients of a Sim contend on its
// links exactly as co-located processes would.
type Sim struct {
	clk *simclock.Virtual
	tb  *testbed.Testbed
	cfg simConfig
}

type simConfig struct {
	nodes, gpus int
	bandwidth   float64 // link and allocation rate multiplier (tests only)
	tracing     bool
	sample      time.Duration // gauge sampling cadence; 0 = off
	sharedHost  int64         // per-node shared host cache pool size; 0 = private
}

// Option configures a Sim.
type Option func(*simConfig)

// WithNodes sets the number of compute nodes (default 1).
func WithNodes(n int) Option { return func(c *simConfig) { c.nodes = n } }

// WithGPUsPerNode sets the GPU (process) count per node (default 8).
func WithGPUsPerNode(n int) Option { return func(c *simConfig) { c.gpus = n } }

// WithSharedHostCache replaces every client's private pinned host cache
// with one pool of the given size per node, shared by the node's clients
// — the paper's future-work load balancing for variable-sized
// checkpoints. Per-client WithHostCache is then ignored.
func WithSharedHostCache(bytesPerNode int64) Option {
	return func(c *simConfig) { c.sharedHost = bytesPerNode }
}

// WithTracing records every checkpoint, restore, flush, and prefetch
// span of every client on the simulated timeline; export with
// Sim.WriteTrace for chrome://tracing or ui.perfetto.dev.
func WithTracing() Option {
	return func(c *simConfig) { c.tracing = true }
}

// WithSampling polls every client's cache/engine/queue gauges at the
// given simulated interval for the duration of Run, storing each sample
// once. Sim.SampledSeries returns each gauge's last 4,096 samples
// afterwards; combined with WithTracing, the same store supplies the
// Chrome trace export's counter tracks (its last 2^20 samples).
func WithSampling(interval time.Duration) Option {
	return func(c *simConfig) { c.sample = interval }
}

// NewSim builds a simulated cluster.
func NewSim(opts ...Option) (*Sim, error) {
	cfg := simConfig{nodes: 1, gpus: 8, bandwidth: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.nodes < 1 {
		return nil, errors.New("score: need at least one node")
	}
	if cfg.sharedHost < 0 {
		return nil, errors.New("score: shared host cache size must be positive")
	}
	clk := simclock.NewVirtual()
	tb, err := testbed.New(clk, cfg.nodes, cfg.gpus, cfg.bandwidth, cfg.tracing, cfg.sample)
	if err != nil {
		return nil, err
	}
	return &Sim{clk: clk, tb: tb, cfg: cfg}, nil
}

// WriteTrace exports the recorded timeline (WithTracing) in the Chrome
// trace-event format.
func (s *Sim) WriteTrace(w io.Writer) error {
	if s.tb.Tracer == nil {
		return errors.New("score: tracing not enabled (use WithTracing)")
	}
	return s.tb.Tracer.WriteJSON(w)
}

// Tracer returns the runtime tracer (nil unless WithTracing was given):
// the handle for the lifecycle flight recorder (Tracer().Flight()) and
// the bounded-retention drop counters.
func (s *Sim) Tracer() *trace.Tracer { return s.tb.Tracer }

// Run executes fn as the root simulated task and returns once every task
// has finished: fn and every task it or the runtime started. All Sim and
// Client calls must happen inside Run.
func (s *Sim) Run(fn func()) {
	if sampler := s.tb.Sampler; sampler != nil {
		// The sampler task must start inside the run and stop before the
		// root task returns, or its timer alone would keep the virtual
		// clock advancing and Run from returning.
		inner := fn
		fn = func() {
			sampler.Start()
			defer sampler.Stop()
			inner()
		}
	}
	s.clk.Run(fn)
}

// SampledSeries returns the gauge timelines recorded under WithSampling,
// name → chronological samples. Call after Run.
func (s *Sim) SampledSeries() map[string][]metrics.Sample {
	if s.tb.Sampler == nil {
		return nil
	}
	return s.tb.Sampler.Series()
}

// Clock returns the simulation's time source.
func (s *Sim) Clock() Clock { return s.clk }

// NewWaitGroup returns a clock-aware WaitGroup for joining tasks started
// with Clock.Go.
func (s *Sim) NewWaitGroup() *WaitGroup {
	return &WaitGroup{inner: simclock.NewWaitGroup(s.clk)}
}

// Nodes returns the node count.
func (s *Sim) Nodes() int { return s.cfg.nodes }

// GPUsPerNode returns the per-node GPU count.
func (s *Sim) GPUsPerNode() int { return s.cfg.gpus }

// NewFaultInjector builds a deterministic, seedable fault injector on the
// simulation's clock. Attach it to clients with WithFaultInjector; the
// same seed and rules replay the identical fault schedule under the
// virtual clock.
func (s *Sim) NewFaultInjector(seed int64, rules ...faultinject.Rule) *faultinject.Injector {
	return faultinject.New(s.clk, seed, rules...)
}

// linkInterceptor adapts the injector's verdicts to a fabric link (or the
// GPU's host-allocation engine, which reuses the same shape).
func linkInterceptor(inj *faultinject.Injector, site faultinject.Site) fabric.TransferInterceptor {
	return func(_ string, size int64) fabric.FaultDecision {
		d := inj.Decide(site, -1, size)
		return fabric.FaultDecision{Err: d.Err, Delay: d.Delay, BandwidthScale: d.Scale}
	}
}

// storeFaults adapts the injector to a durable store's read/write paths.
// Injected delays (gray slowness: DelayOps, JitterOps, StallWindow) are
// served by sleeping on the simulation clock, so a "slow store" genuinely
// slows the operation down instead of failing it.
type storeFaults struct {
	inj         *faultinject.Injector
	clk         *simclock.Virtual
	write, read faultinject.Site
}

func (h storeFaults) BeforeWrite(id int64, size int) error {
	d := h.inj.Decide(h.write, id, int64(size))
	if d.Delay > 0 {
		h.clk.Sleep(d.Delay)
	}
	return d.Err
}

func (h storeFaults) OnRead(id int64, raw []byte) ([]byte, error) {
	d := h.inj.Decide(h.read, id, int64(len(raw)))
	if d.Delay > 0 {
		h.clk.Sleep(d.Delay)
	}
	if d.Err != nil {
		return nil, d.Err
	}
	if d.Corrupt && len(raw) > 0 {
		// Silent bit-flip mid-file: the store's CRC layer must catch it.
		out := make([]byte, len(raw))
		copy(out, raw)
		out[len(out)/2] ^= 0x40
		return out, nil
	}
	return raw, nil
}

// openStore opens (and optionally scrubs) one durable store directory.
func openStore(dir string, scrub bool) (*ckptstore.Store, []int64, error) {
	st, corrupt, err := ckptstore.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	if scrub {
		q, err := st.Scrub()
		if err != nil {
			return nil, nil, fmt.Errorf("score: scrubbing %s: %w", dir, err)
		}
		return st, q, nil
	}
	if len(corrupt) > 0 {
		return nil, nil, fmt.Errorf("score: store %s holds %d corrupt checkpoint(s): %v",
			dir, len(corrupt), corrupt[0])
	}
	return st, nil, nil
}

// NewClient creates the Score runtime for the process pinned to the given
// node and GPU, its traces keyed by job rank node×GPUs+gpu. Call inside Run.
func (s *Sim) NewClient(node, gpu int, opts ...ClientOption) (*Client, error) {
	if node < 0 || node >= s.cfg.nodes {
		return nil, fmt.Errorf("score: node %d out of range [0,%d)", node, s.cfg.nodes)
	}
	if gpu < 0 || gpu >= s.cfg.gpus {
		return nil, fmt.Errorf("score: GPU %d out of range [0,%d)", gpu, s.cfg.gpus)
	}
	cc := clientConfig{
		gpuCache:  4 * fabric.GB,
		hostCache: 32 * fabric.GB,
	}
	for _, o := range opts {
		o(&cc)
	}
	n := s.tb.Cluster.Nodes[node]
	dev := s.tb.GPU(node, gpu)
	var sharedPool *core.SharedHostCache
	if s.cfg.sharedHost > 0 {
		sharedPool = s.tb.SharedHost(node, s.cfg.sharedHost)
	}
	var store, pfsStore, partnerStore *ckptstore.Store
	var partnerPath fabric.Path
	var quarantined []int64
	if cc.storeDir != "" {
		st, q, err := openStore(cc.storeDir, cc.scrubOnOpen)
		if err != nil {
			return nil, err
		}
		store, quarantined = st, append(quarantined, q...)
	}
	if cc.pfsStoreDir != "" {
		st, q, err := openStore(cc.pfsStoreDir, cc.scrubOnOpen)
		if err != nil {
			return nil, err
		}
		pfsStore, quarantined = st, append(quarantined, q...)
	}
	if cc.partnerDir != "" {
		pn, err := partnerNode(node, s.cfg.nodes)
		if err != nil {
			return nil, err
		}
		st, q, err := openStore(cc.partnerDir, cc.scrubOnOpen)
		if err != nil {
			return nil, err
		}
		partnerStore, quarantined = st, append(quarantined, q...)
		// Replication crosses both nodes' NICs onto the partner's NVMe;
		// reads traverse the same path reversed.
		partner := s.tb.Cluster.Nodes[pn]
		partnerPath = fabric.Path{n.NIC, partner.NIC, partner.NVMe}
	}
	sort.Slice(quarantined, func(i, j int) bool { return quarantined[i] < quarantined[j] })
	var faultSeed int64
	if inj := cc.injector; inj != nil {
		faultSeed = inj.Seed()
		_, pcie := n.GPULinks(gpu)
		pcie.SetInterceptor(linkInterceptor(inj, faultinject.SitePCIe))
		// NVMe and PFS are node-shared links: the interceptor affects
		// every client on the node (see WithFaultInjector).
		n.NVMe.SetInterceptor(linkInterceptor(inj, faultinject.SiteNVMe))
		n.PFS.SetInterceptor(linkInterceptor(inj, faultinject.SitePFS))
		n.NIC.SetInterceptor(linkInterceptor(inj, faultinject.SitePartner))
		dev.SetAllocInterceptor(linkInterceptor(inj, faultinject.SiteHostAlloc))
		if store != nil {
			store.SetFaultHook(storeFaults{inj, s.clk, faultinject.SiteStoreWrite, faultinject.SiteStoreRead})
		}
		if pfsStore != nil {
			pfsStore.SetFaultHook(storeFaults{inj, s.clk, faultinject.SitePFSStoreWrite, faultinject.SitePFSStoreRead})
		}
		if partnerStore != nil {
			partnerStore.SetFaultHook(storeFaults{inj, s.clk, faultinject.SitePartnerStoreWrite, faultinject.SitePartnerStoreRead})
		}
	}
	var commit core.CommitHook
	if cc.tracker != nil {
		commit = cc.tracker.inner
	}
	var evictPolicy cachebuf.Policy // zero value is PolicyScore, the default
	if cc.evictPolicy != "" {
		p, err := cachebuf.ParsePolicy(cc.evictPolicy)
		if err != nil {
			return nil, fmt.Errorf("score: %w", err)
		}
		evictPolicy = p
	}
	params := core.Params{
		Clock:               s.clk,
		GPU:                 dev,
		NVMe:                n.NVMe,
		PFS:                 n.PFS,
		GPUCacheSize:        cc.gpuCache,
		HostCacheSize:       cc.hostCache,
		GPUEvictionPolicy:   evictPolicy,
		DiscardAfterRestore: cc.discard,
		PersistToPFS:        cc.persistPFS,
		AsyncHostInit:       cc.asyncHostInit,
		Store:               store,
		PFSStore:            pfsStore,
		FaultSeed:           faultSeed,
		Tracer:              s.tb.Tracer,
		SharedHost:          sharedPool,
		GPUDirectStorage:    cc.gpuDirect,
		ChunkSize:           cc.chunkSize,
		FlushStreams:        cc.flushStreams,
		PartnerStore:        partnerStore,
		PartnerPath:         partnerPath,
		Rank:                cc.rank,
		Commit:              commit,
		Hedge:               cc.hedge,
	}
	// A nil *slo.Engine must stay a nil interface (every sink method is
	// nil-safe, but the hot-path gate is the interface nil check).
	if cc.slo != nil {
		params.SLO = cc.slo
	}
	client, err := core.New(params)
	if err != nil {
		return nil, err
	}
	if cc.autoHints {
		// Predicted hints arrive without a PrefetchStart call.
		client.PrefetchStart()
	}
	if inj := cc.injector; inj != nil {
		if at, ok := inj.KillAt(node, gpu); ok {
			// The kill timer is its own clock task: it fires at the
			// scheduled virtual time and unwinds the client. Killing an
			// already closed client is a no-op, so a timer outliving a
			// normally-closed run is harmless.
			s.clk.Go(func() {
				if d := at - s.clk.Now(); d > 0 {
					s.clk.Sleep(d)
				}
				client.Kill()
			})
		}
	}
	if s.tb.Sampler != nil {
		client.RegisterProbes(s.tb.Sampler, testbed.Probes(node, gpu))
	}
	out := &Client{inner: client, dev: dev, clk: s.clk, quarantined: quarantined,
		node: node, inj: cc.injector}
	if inj := cc.injector; inj != nil {
		if at, grace, ok := inj.PreemptAt(node, gpu); ok {
			// The preemption timer models the scheduler's reclaim protocol:
			// the notice arrives at the scheduled virtual time and starts
			// the deadline-bounded drain; the reclaim itself fires at
			// notice+grace regardless of how the drain fared — that is the
			// contract the drain's fail-open design exists for. Killing an
			// already closed client is a no-op.
			s.clk.Go(func() {
				if d := at - s.clk.Now(); d > 0 {
					s.clk.Sleep(d)
				}
				// Keep the manifest even when the reclaim overran the
				// drain (it still reports every version's outcome); only a
				// gate rejection returns an empty one.
				if m, err := client.Drain(grace); err == nil || len(m.Entries) > 0 {
					out.setDrainManifest(m)
				}
				if d := at + grace - s.clk.Now(); d > 0 {
					s.clk.Sleep(d)
				}
				client.Kill()
			})
		}
	}
	if cc.autoHints {
		p, err := predict.New(predict.HinterFunc(func(v int64) { client.PrefetchEnqueue(core.ID(v)) }))
		if err != nil {
			return nil, err
		}
		out.predictor = p
	}
	return out, nil
}
