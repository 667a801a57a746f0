package experiments

import (
	"fmt"
	"io"
	"time"

	"score/internal/cachebuf"
	"score/internal/metrics"
	"score/internal/report"
	"score/internal/rtm"
)

// AblationRow is one measured ablation variant.
type AblationRow struct {
	Principle string
	Variant   string
	CkptBps   float64
	RestBps   float64
	IOWait    time.Duration
}

// AblationResult is the measured ablation study of the §4.1 design
// principles.
type AblationResult struct {
	Rows []AblationRow
}

// Render prints the ablation table.
func (a AblationResult) Render(w io.Writer) error {
	tab := report.NewTable("Ablations — §4.1 design principles (Score, all hints)",
		"principle", "variant", "ckpt", "restore", "io-wait")
	for _, r := range a.Rows {
		tab.AddRow(r.Principle, r.Variant,
			metrics.FormatBytesPerSec(r.CkptBps),
			metrics.FormatBytesPerSec(r.RestBps),
			r.IOWait.Round(time.Millisecond).String())
	}
	return tab.Render(w)
}

// Ablations measures each §4.1 design principle by disabling it and
// rerunning the workload where it matters most:
//
//   - eviction policy, shared cache, pinning, pre-allocation: the
//     irregular variable-size no-wait shot (the paper's hardest case);
//   - the multi-tier concurrent prefetcher: the uniform WAIT+reverse
//     shot, whose backward pass ends on an SSD-resident tail.
func Ablations(run Run) (AblationResult, error) {
	var out AblationResult
	// Every variant is the Score client with all hints on one of two
	// shots, changed by mutate (nil: unchanged).
	shot := func(cfg ShotConfig, mutate func(*ShotConfig)) ShotConfig {
		cfg.Run, cfg.Combo = run, Combo{Score, AllHints}
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	irregular := func(mutate func(*ShotConfig)) ShotConfig {
		return shot(ShotConfig{Uniform: false, WaitForFlush: false, Order: rtm.Irregular}, mutate)
	}
	tail := func(mutate func(*ShotConfig)) ShotConfig {
		return shot(ShotConfig{Uniform: true, WaitForFlush: true, Order: rtm.Reverse}, mutate)
	}

	type variant struct {
		principle, name string
		cfg             ShotConfig
	}
	var variants []variant
	// §4.2 eviction policy — every registered policy, on the full client.
	for _, pol := range cachebuf.Policies() {
		variants = append(variants, variant{"eviction policy (§4.2)", pol.String(),
			irregular(func(c *ShotConfig) { c.EvictionPolicy = pol })})
	}
	variants = append(variants,
		// §4.1.2 shared vs split cache.
		variant{"shared cache (§4.1.2)", "shared", irregular(nil)},
		variant{"shared cache (§4.1.2)", "split", irregular(func(c *ShotConfig) { c.SplitCache = true })},
		// §4.1.3 pinning.
		variant{"pinning (§4.1.3)", "unpinned", irregular(func(c *ShotConfig) { c.NoPinning = true })},
		// §4.1.4 pre-allocation.
		variant{"pre-allocation (§4.1.4)", "preallocated", irregular(func(c *ShotConfig) { c.UpfrontHostInit = true })},
		variant{"pre-allocation (§4.1.4)", "on-demand", irregular(func(c *ShotConfig) { c.OnDemandAlloc = true })},
		// §4.3.1 multi-tier T_PF (SSD-tail shot).
		variant{"multi-tier T_PF (§4.3.1)", "staged", tail(nil)},
		variant{"multi-tier T_PF (§4.3.1)", "serialized", tail(func(c *ShotConfig) { c.NoHostStager = true })},
		// §4.3 chunked transfer pipelining, measured on the GPUDirect
		// shot: there every flush (GPU→SSD) and every promotion
		// (SSD→GPU) crosses two hops (PCIe + NVMe), so the chunk-level
		// overlap is visible in both directions end to end.
		variant{"transfer pipelining (§4.3)", "monolithic", tail(func(c *ShotConfig) { c.GPUDirect, c.ChunkSize = true, 0 })},
		variant{"transfer pipelining (§4.3)", "chunked", tail(func(c *ShotConfig) {
			c.GPUDirect, c.ChunkSize = true, run.UniformSize/8
		})},
	)
	for _, v := range variants {
		// Each shot's exports get a run of their own.
		v.cfg.Label = fmt.Sprintf("ablation %s: %s", v.principle, v.name)
		res, err := RunShot(v.cfg)
		if err != nil {
			return out, fmt.Errorf("%s/%s: %w", v.principle, v.name, err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Principle: v.principle, Variant: v.name,
			CkptBps: res.MeanCheckpointThroughput(),
			RestBps: res.MeanRestoreThroughput(),
			IOWait:  res.TotalIOWait(),
		})
	}
	return out, nil
}
