package experiments

// Eviction-policy ablation matrix: every registered cachebuf policy
// replayed against the "kv" trace on the virtual clock, measuring cache
// hit rate and the restore-blocking latency a miss costs. The trace is
// an LLM-inference KV-cache reuse pattern ("Saving GPU Hours in LLM
// Inference", PAPERS.md): many small sessions with Zipf-skewed
// popularity, each turn re-reading the session's prefix blocks before
// appending a new one, interleaved with one-shot scan bursts (batch/RAG
// traffic) that pollute recency-only policies.
//
// The paper's own adjoint pattern (forward writes, reverse restore scan)
// is not replayed here: on uniform always-evictable blocks its reuse
// distance is the whole shot, so every policy hits the same warm tail.
// The ablation's "eviction policy (§4.2)" rows measure it on the full
// client instead, where pinning and flush state separate the policies.
//
// The replay drives cachebuf.Buffer directly rather than the full
// client: every block is durable (always evictable, never pinned), so
// the policies differ only in what they keep. The oracle feeds the
// score policy next-use distances (the restore-order-queue analog), so
// it plays a Bélády-like hand; LRU, FIFO and ARC see only the
// insert/touch event stream.

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"score/internal/cachebuf"
	"score/internal/metrics"
	"score/internal/report"
	"score/internal/simclock"
	"score/internal/slo"
)

// EvictCell is one (workload, policy) cell of the ablation matrix.
type EvictCell struct {
	Workload  string
	Policy    string
	Accesses  int
	Hits      int
	Evictions int64
	// Blocking is total simulated restore-blocking time (miss stalls).
	Blocking time.Duration
	// SLO holds the cell's hit-rate compliance report when the matrix
	// ran with objectives (nil otherwise).
	SLO *slo.Report
}

// HitRate is the fraction of accesses served from the cache.
func (c EvictCell) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// MeanBlocking is the average restore-blocking stall per access.
func (c EvictCell) MeanBlocking() time.Duration {
	if c.Accesses == 0 {
		return 0
	}
	return c.Blocking / time.Duration(c.Accesses)
}

// EvictResult is the full policy × workload matrix.
type EvictResult struct {
	Cells []EvictCell
}

// Cell returns the (workload, policy) cell, if present.
func (r EvictResult) Cell(workload, policy string) (EvictCell, bool) {
	for _, c := range r.Cells {
		if c.Workload == workload && c.Policy == policy {
			return c, true
		}
	}
	return EvictCell{}, false
}

// Render prints the matrix.
func (r EvictResult) Render(w io.Writer) error {
	tab := report.NewTable("Eviction ablation — policy × workload (hit rate, restore blocking)",
		"workload", "policy", "accesses", "hits", "hit rate", "evictions", "mean blocking")
	for _, c := range r.Cells {
		tab.AddRow(c.Workload, c.Policy, c.Accesses, c.Hits,
			fmt.Sprintf("%.1f%%", 100*c.HitRate()),
			c.Evictions,
			c.MeanBlocking().Round(time.Microsecond).String())
	}
	return tab.Render(w)
}

// evictAccess is one block access of a trace; insert marks first-writes
// (the checkpoint/prefill itself) that are not counted as lookups.
type evictAccess struct {
	id     cachebuf.ID
	insert bool
}

// evictTrace is a fully materialized access trace over uniform blocks.
type evictTrace struct {
	name     string
	accesses []evictAccess
	// capacityBlocks sizes the cache relative to the working set.
	capacityBlocks int
}

// kvTrace generates the KV-cache session workload: sessions are chosen
// Zipf-skewed, each turn replays the session's prefix blocks and
// appends one, and every scanEvery-th turn is a burst of one-shot
// blocks instead (prefill of a throwaway batch request).
func kvTrace(turns int, seed int64) evictTrace {
	const (
		sessions  = 48
		zipfS     = 1.3
		maxPrefix = 12
		scanEvery = 7
		scanLen   = 16
	)
	tr := evictTrace{name: "kv"}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, sessions-1)

	var nextID cachebuf.ID
	newBlock := func() cachebuf.ID {
		id := nextID
		nextID++
		return id
	}
	prefix := make([][]cachebuf.ID, sessions)
	for s := range prefix {
		// Every session starts with two context blocks (system prompt +
		// few-shot examples), written once up front.
		for k := 0; k < 2; k++ {
			b := newBlock()
			prefix[s] = append(prefix[s], b)
			tr.accesses = append(tr.accesses, evictAccess{id: b, insert: true})
		}
	}
	for turn := 0; turn < turns; turn++ {
		if turn%scanEvery == scanEvery-1 {
			// One-shot scan burst: fresh blocks, never touched again.
			for k := 0; k < scanLen; k++ {
				tr.accesses = append(tr.accesses, evictAccess{id: newBlock(), insert: true})
			}
			continue
		}
		s := int(zipf.Uint64())
		for _, b := range prefix[s] {
			tr.accesses = append(tr.accesses, evictAccess{id: b})
		}
		if len(prefix[s]) < maxPrefix {
			b := newBlock()
			prefix[s] = append(prefix[s], b)
			tr.accesses = append(tr.accesses, evictAccess{id: b, insert: true})
		}
	}
	// Cache ~an eighth of the distinct blocks: enough for the hot
	// sessions, far too small for the scan junk plus the long tail.
	tr.capacityBlocks = int(nextID) / 8
	return tr
}

// evictOracle: every block is durable (evictable immediately), nothing
// is pinned, and PrefetchDistance is the next-use distance of the block
// in the trace — the restore-order-queue hint stream the score policy
// consumes in the real client.
type evictOracle struct {
	pos     int
	nextUse map[cachebuf.ID][]int // ascending future access positions
}

func (o *evictOracle) Evictable(cachebuf.ID) bool { return true }
func (o *evictOracle) TimeToEvictable(cachebuf.ID) (time.Duration, bool) {
	return 0, true
}
func (o *evictOracle) PrefetchDistance(id cachebuf.ID) int {
	uses := o.nextUse[id]
	for len(uses) > 0 && uses[0] <= o.pos {
		uses = uses[1:]
	}
	o.nextUse[id] = uses
	if len(uses) == 0 {
		return cachebuf.GapDistance - 1
	}
	d := uses[0] - o.pos
	if d >= cachebuf.GapDistance {
		d = cachebuf.GapDistance - 1
	}
	return d
}
func (o *evictOracle) Evicted(cachebuf.ID) {}

// replayTrace runs one (trace, policy) cell on a fresh buffer and
// virtual clock. Uniform 1 MiB blocks; a miss stalls for the block's
// transfer time at the (scaled) host-link bandwidth before it lands.
func replayTrace(run Run, tr evictTrace, pol cachebuf.Policy) (EvictCell, error) {
	const blockSize = 1 << 20
	cell := EvictCell{Workload: tr.name, Policy: pol.String()}

	o := &evictOracle{nextUse: map[cachebuf.ID][]int{}}
	for i, a := range tr.accesses {
		o.nextUse[a.id] = append(o.nextUse[a.id], i)
	}

	var replayErr error
	clk := simclock.NewVirtual()
	clk.Run(func() {
		capacity := int64(tr.capacityBlocks) * blockSize
		buf := cachebuf.New(clk, "evict-"+tr.name, capacity, o)
		if err := buf.SetPolicy(pol); err != nil {
			replayErr = err
			return
		}
		// The hit-rate objective rides the replay clock: hits are free
		// (same-instant batch), each miss advances time by its stall and
		// charges the lower-tier transfer as the bad event's component.
		var eng *slo.Engine
		if run.SLO {
			if eng, replayErr = slo.NewEngine(clk.Now, slo.EvictObjectives()...); replayErr != nil {
				return
			}
		}
		// The host link is 2 GB/s at full scale and follows the scale's
		// link scaling.
		bw := 2e9 * run.Bandwidth
		missCost := time.Duration(float64(blockSize) / bw * float64(time.Second))
		for i, a := range tr.accesses {
			o.pos = i
			if _, _, ok := buf.Contains(a.id); ok {
				if !a.insert {
					cell.Accesses++
					cell.Hits++
					eng.Observe(slo.KindHitRate, true, nil)
				}
				buf.Touch(a.id)
				continue
			}
			if !a.insert {
				// Restore miss: blocking re-fetch from the lower tier.
				cell.Accesses++
				start := clk.Now()
				clk.Sleep(missCost)
				cell.Blocking += clk.Now() - start
				eng.Observe(slo.KindHitRate, false,
					map[string]time.Duration{metrics.CompXferSSD: missCost})
			}
			if _, err := buf.TryReserve(a.id, blockSize); err != nil {
				replayErr = fmt.Errorf("access %d (id %d): %w", i, a.id, err)
				return
			}
		}
		cell.Evictions = buf.Snapshot().Evictions
		if eng != nil {
			eng.Finalize()
			rep := eng.Report()
			if replayErr = reconcileSLO(&rep, map[slo.Kind]int64{slo.KindHitRate: int64(cell.Accesses)}, nil); replayErr != nil {
				return
			}
			cell.SLO = &rep
			run.reportSLO(fmt.Sprintf("evict/%s/%s", cell.Workload, cell.Policy), rep)
		}
	})
	return cell, replayErr
}

// EvictionMatrix runs every registered policy against the kv trace.
func EvictionMatrix(run Run) (EvictResult, error) {
	// The trace size follows the scale's snapshot count.
	tr := kvTrace(run.Snapshots*6, 1)
	var out EvictResult
	for _, pol := range cachebuf.Policies() {
		cell, err := replayTrace(run, tr, pol)
		if err != nil {
			return out, fmt.Errorf("%s/%s: %w", tr.name, pol, err)
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}
