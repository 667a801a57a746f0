package main

import (
	"fmt"
	"math"
	"math/rand"

	"score/internal/rtm"
)

const (
	gpusPerNode = 8
	// Paper-scale cache reservations (§5.3.4); the bandwidths are the
	// DGX-A100 defaults of score.NewSim.
	gpuCacheBytes  = 4 << 30
	hostCacheBytes = 32 << 30
	setupReps      = 3
)

// workload is one closed-loop input set: one task per rank, each issuing
// its next operation only after the previous one returned.
type workload struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why       string
	Nodes     int
	Snapshots int
	// UniformSize > 0 replaces the variable-size RTM trace with
	// near-uniform snapshots: the run's nominal size is within ±1 % of
	// UniformSize and every snapshot within ±2 % of that, both seeded,
	// so every seed is a distinct input and no simulated time reads the
	// same on two seeds.
	UniformSize int64
	Order       rtm.Order
	Hints       bool // enqueue the full restore order before the forward pass
	Drain       bool // WaitFlush between the passes
	Coupled     bool // barrier across all ranks at every iteration
	Direct      bool // WithGPUDirect
	Chunk       int64
	Observed    bool // WithTracing + WithSampling + WithSLO, trace exported per shot
	// ShotsPer10s is the measured-shot count of a 10 s run, frozen from
	// sandbox sizing (bench/README.md); --seconds scales it linearly so
	// the count, and with it every simulated metric, does not depend on
	// how fast the host happens to be.
	ShotsPer10s int
	// VerifyBytes is what all ranks of the verification shot checksum
	// together; 0 means 128 MiB.
	VerifyBytes int64
}

func (w workload) ranks() int { return w.Nodes * gpusPerNode }

func (w workload) shots(seconds int) int {
	n := (w.ShotsPer10s*seconds + 5) / 10
	if n < 3 {
		n = 3
	}
	return n
}

var workloads = []workload{
	{
		Name: "rtm_hinted", Nodes: 1, Snapshots: 384, Order: rtm.Reverse, Hints: true,
		ShotsPer10s: 30,
		Why:         "paper Fig. 6b headline: 8 GPUs, all hints, variable RTM sizes, reverse, immediate restore; host time is eviction-window scoring",
	},
	{
		Name: "cold_irregular", Nodes: 1, Snapshots: 384, Order: rtm.Irregular, Drain: true,
		ShotsPer10s: 44,
		Why:         "no hints, drained, irregular order: prefetcher idle and reads walk the SSD ladder, so prefetch or scoring gains must not move it",
	},
	{
		Name: "chunked_direct", Nodes: 1, Snapshots: 384, UniformSize: 128 << 20, Order: rtm.Reverse,
		Hints: true, Drain: true, Direct: true, Chunk: 16 << 20,
		ShotsPer10s: 40,
		Why:         "uniform 128 MiB, GPUDirect with 16 MiB chunks, drained: 4x the wakeups for the same bytes, the engine-bound case with real flush traffic",
	},
	{
		Name: "wide_coupled", Nodes: 64, Snapshots: 24, UniformSize: 64 << 20, Order: rtm.Reverse,
		Hints: true, Drain: true, Coupled: true,
		ShotsPer10s: 18,
		Why:         "512 ranks, barrier every iteration, 24 snapshots that fit the GPU cache, drained: scheduler-bound, and the bypass case for cachebuf/core eviction changes",
	},
	{
		Name: "observed_rtm", Nodes: 1, Snapshots: 384, Order: rtm.Reverse, Hints: true, Observed: true,
		ShotsPer10s: 9,
		Why:         "rtm_hinted with tracing, 10 ms sampling and SLOs: same simulated numbers, higher host cost; the pair is the observer tax",
	},
}

// tiny shrinks a workload to a unit-test smoke: same option set and
// code path, a few snapshots on at most two nodes.
func (w workload) tiny() workload {
	w.Snapshots = 12
	if w.Nodes > 2 {
		w.Nodes = 2
	}
	w.VerifyBytes = 2 << 20
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shotInput is everything one shot feeds the library: per-rank snapshot
// sizes and restore orders, and for the verification shot the real
// payload pool its checkpoints are cut from.
type shotInput struct {
	sizes  [][]int64
	orders [][]int
	pool   []byte
}

// makeInputs generates the inputs of shots consecutive shots from seed
// alone: shot i draws its sizes and restore orders from trace seed
// seed*1000+i.
func makeInputs(w workload, seed int64, shots int) ([]shotInput, error) {
	cfg := rtm.DefaultTraceConfig()
	// A shorter shot (the unit-test smoke) keeps the paper's mean
	// snapshot size, not its 38–50 GB aggregate.
	cfg.MinAggregate = cfg.MinAggregate * int64(w.Snapshots) / int64(cfg.Snapshots)
	cfg.MaxAggregate = cfg.MaxAggregate * int64(w.Snapshots) / int64(cfg.Snapshots)
	cfg.Snapshots = w.Snapshots
	ranks := w.ranks()
	nominal := float64(w.UniformSize) * (1 + 0.01*(2*rand.New(rand.NewSource(seed)).Float64()-1))
	inputs := make([]shotInput, shots)
	for i := range inputs {
		cfg.Seed = seed*1000 + int64(i)
		in := shotInput{sizes: make([][]int64, ranks), orders: make([][]int, ranks)}
		for r := 0; r < ranks; r++ {
			if w.UniformSize > 0 {
				sh := rtm.UniformShot(r, w.Snapshots, 0)
				jitter := rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
				for k := range sh.Sizes {
					sh.Sizes[k] = int64(math.Round(nominal * (1 + 0.02*(2*jitter.Float64()-1))))
				}
				in.sizes[r] = sh.Sizes
			} else {
				sh, err := rtm.GenerateShot(cfg, r)
				if err != nil {
					return nil, err
				}
				in.sizes[r] = sh.Sizes
			}
			in.orders[r] = w.Order.Sequence(w.Snapshots, cfg.Seed+int64(r))
		}
		inputs[i] = in
	}
	return inputs, nil
}

// verifyScale shrinks a workload to a real-payload shot that keeps its
// option set: at most 64 versions per rank, payloads sized so all ranks
// together checksum about 128 MiB, and caches scaled so the small
// payloads still overflow the GPU cache and reach the SSD tier.
type verifyScale struct {
	versions        int
	size            int64
	gpuCache, hostC int64
	chunk           int64
}

func (w workload) verifyScale() verifyScale {
	v := verifyScale{versions: w.Snapshots}
	if v.versions > 64 {
		v.versions = 64
	}
	total := w.VerifyBytes
	if total == 0 {
		total = 128 << 20
	}
	v.size = total / int64(w.ranks()*v.versions)
	// Keep the workload's cache-to-working-set ratio: the GPU cache
	// holds the same share of a rank's shot as at paper scale.
	perRank := float64(v.size) * float64(v.versions)
	shot := float64(w.UniformSize) * float64(w.Snapshots)
	if w.UniformSize == 0 {
		shot = 44 * float64(1<<30) // mean RTM aggregate per rank
	}
	v.gpuCache = int64(perRank * gpuCacheBytes / shot)
	v.hostC = int64(perRank * hostCacheBytes / shot)
	if w.Chunk > 0 {
		v.chunk = v.size / 8
	}
	return v
}

// makeVerifyInput builds the real-payload shot: every (rank, version)
// checkpoint is a distinct window of one seeded random pool.
func makeVerifyInput(w workload, v verifyScale, seed int64) shotInput {
	in := shotInput{sizes: make([][]int64, w.ranks()), orders: make([][]int, w.ranks())}
	in.pool = make([]byte, int(v.size)+w.ranks()*v.versions)
	rand.New(rand.NewSource(seed)).Read(in.pool)
	for r := range in.sizes {
		in.sizes[r] = make([]int64, v.versions)
		for i := range in.sizes[r] {
			in.sizes[r][i] = v.size
		}
		in.orders[r] = w.Order.Sequence(v.versions, seed+int64(r))
	}
	return in
}

// payload returns the bytes rank writes as version.
func (in shotInput) payload(rank, version int) []byte {
	off := rank*len(in.sizes[rank]) + version
	return in.pool[off : off+int(in.sizes[rank][version])]
}
