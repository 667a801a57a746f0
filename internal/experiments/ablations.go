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

	irregular := func(mutate func(*ShotConfig)) (ShotResult, error) {
		cfg := ShotConfig{
			Uniform: false, WaitForFlush: false, Order: rtm.Irregular,
			Combo: Combo{Score, AllHints},
		}
		run.Apply(&cfg)
		if mutate != nil {
			mutate(&cfg)
		}
		return RunShot(cfg)
	}
	add := func(principle, variant string, res ShotResult, err error) error {
		if err != nil {
			return fmt.Errorf("%s/%s: %w", principle, variant, err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Principle: principle, Variant: variant,
			CkptBps: res.MeanCheckpointThroughput(),
			RestBps: res.MeanRestoreThroughput(),
			IOWait:  res.TotalIOWait(),
		})
		return nil
	}

	// §4.2 eviction policy — every registered policy, on the full client.
	for _, pol := range cachebuf.Policies() {
		pol := pol
		res, err := irregular(func(c *ShotConfig) { c.EvictionPolicy = pol })
		if err := add("eviction policy (§4.2)", pol.String(), res, err); err != nil {
			return out, err
		}
	}
	// §4.1.2 shared vs split cache.
	res, err := irregular(nil)
	if err := add("shared cache (§4.1.2)", "shared", res, err); err != nil {
		return out, err
	}
	res, err = irregular(func(c *ShotConfig) { c.SplitCache = true })
	if err := add("shared cache (§4.1.2)", "split", res, err); err != nil {
		return out, err
	}
	// §4.1.3 pinning.
	res, err = irregular(func(c *ShotConfig) { c.NoPinning = true })
	if err := add("pinning (§4.1.3)", "unpinned", res, err); err != nil {
		return out, err
	}
	// §4.1.4 pre-allocation.
	res, err = irregular(func(c *ShotConfig) { c.UpfrontHostInit = true })
	if err := add("pre-allocation (§4.1.4)", "preallocated", res, err); err != nil {
		return out, err
	}
	res, err = irregular(func(c *ShotConfig) { c.OnDemandAlloc = true })
	if err := add("pre-allocation (§4.1.4)", "on-demand", res, err); err != nil {
		return out, err
	}
	// §4.3.1 multi-tier T_PF (SSD-tail shot).
	tail := func(noStager bool) (ShotResult, error) {
		cfg := ShotConfig{
			Uniform: true, WaitForFlush: true, Order: rtm.Reverse,
			Combo: Combo{Score, AllHints},
		}
		run.Apply(&cfg)
		cfg.NoHostStager = noStager
		return RunShot(cfg)
	}
	res, err = tail(false)
	if err := add("multi-tier T_PF (§4.3.1)", "staged", res, err); err != nil {
		return out, err
	}
	res, err = tail(true)
	if err := add("multi-tier T_PF (§4.3.1)", "serialized", res, err); err != nil {
		return out, err
	}
	// §4.3 chunked transfer pipelining, measured on the GPUDirect shot:
	// there every flush (GPU→SSD) and every promotion (SSD→GPU) crosses
	// two hops (PCIe + NVMe), so the chunk-level overlap is visible in
	// both directions end to end.
	pipelined := func(chunk int64) (ShotResult, error) {
		cfg := ShotConfig{
			Uniform: true, WaitForFlush: true, Order: rtm.Reverse,
			Combo: Combo{Score, AllHints},
		}
		run.Apply(&cfg)
		cfg.GPUDirect = true
		cfg.ChunkSize = chunk
		return RunShot(cfg)
	}
	res, err = pipelined(0)
	if err := add("transfer pipelining (§4.3)", "monolithic", res, err); err != nil {
		return out, err
	}
	res, err = pipelined(run.UniformSize / 8)
	if err := add("transfer pipelining (§4.3)", "chunked", res, err); err != nil {
		return out, err
	}
	return out, nil
}
