package experiments

import (
	"fmt"
	"io"
	"time"

	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/report"
	"score/internal/rtm"
)

// Scale shrinks an experiment below paper scale so tests and benchmarks
// finish quickly while preserving every mechanism (evictions, flush
// waits, fragmentation). Full() is the paper's configuration.
type Scale struct {
	Snapshots   int
	UniformSize int64
	GPUCache    int64
	HostCache   int64
	Aggregate   int64   // per-rank variable-size target (scaled 48 GB)
	Bandwidth   float64 // link-bandwidth multiplier (1 = paper hardware)
}

// Full returns the paper-scale parameters (§5.3.3–5.3.4).
func Full() Scale {
	return Scale{
		Snapshots:   384,
		UniformSize: 128 << 20,
		GPUCache:    4 * fabric.GB,
		HostCache:   32 * fabric.GB,
		Aggregate:   48 * fabric.GB,
		Bandwidth:   1,
	}
}

// Small returns a 1/16-scale configuration with identical cache-pressure
// and bandwidth-to-working-set ratios (sizes, caches, and link bandwidths
// all shrink together, so eviction, fragmentation, and contention
// behavior are preserved).
func Small() Scale {
	return Scale{
		Snapshots:   96,
		UniformSize: 32 << 20,
		GPUCache:    fabric.GB / 4,
		HostCache:   2 * fabric.GB,
		Aggregate:   3 * fabric.GB,
		Bandwidth:   1.0 / 16,
	}
}

// traceConfig is the variable-size RTM trace generator at this scale.
func (s Scale) traceConfig() rtm.TraceConfig {
	cfg := rtm.DefaultTraceConfig()
	cfg.Snapshots = s.Snapshots
	cfg.MeanSize = s.Aggregate / int64(s.Snapshots)
	cfg.MinAggregate = s.Aggregate * 38 / 48
	cfg.MaxAggregate = s.Aggregate * 50 / 48
	return cfg
}

// Row is one figure bar/point: a configuration and its two throughputs.
type Row struct {
	Combo   Combo
	Order   rtm.Order
	GPUs    int
	Param   string // swept parameter value, when applicable
	CkptBps float64
	RestBps float64
	IOWait  time.Duration
}

// FigureResult is a rendered experiment.
type FigureResult struct {
	ID    string
	Title string
	Rows  []Row
	// Series carries per-iteration data for Fig. 7.
	Series map[string][]metrics.SeriesPoint
}

// Render prints the figure as a table.
func (f FigureResult) Render(w io.Writer) error {
	tab := report.NewTable(fmt.Sprintf("%s — %s", f.ID, f.Title),
		"configuration", "order", "gpus", "param", "ckpt", "restore", "io-wait")
	for _, r := range f.Rows {
		tab.AddRow(r.Combo.Label(), r.Order.String(), r.GPUs, r.Param,
			metrics.FormatBytesPerSec(r.CkptBps),
			metrics.FormatBytesPerSec(r.RestBps),
			r.IOWait.Round(time.Millisecond).String())
	}
	return tab.Render(w)
}

// runCombos sweeps Table 1 combos × orders for one base config.
func runCombos(base ShotConfig, combos []Combo, orders []rtm.Order) ([]Row, error) {
	var rows []Row
	for _, order := range orders {
		for _, combo := range combos {
			cfg := base
			cfg.Order = order
			cfg.Combo = combo
			res, err := RunShot(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", combo.Label(), order, err)
			}
			rows = append(rows, Row{
				Combo: combo, Order: order,
				GPUs:    len(res.PerRank),
				CkptBps: res.MeanCheckpointThroughput(),
				RestBps: res.MeanRestoreThroughput(),
				IOWait:  res.TotalIOWait(),
			})
		}
	}
	return rows, nil
}

// Fig4 regenerates the snapshot-size distribution of Figure 4: min, avg,
// and max sizes per snapshot across shots ranks.
func Fig4(scale Scale, shots int) ([]rtm.SnapshotStats, error) {
	cfg := scale.traceConfig()
	var all []rtm.Shot
	for rank := 0; rank < shots; rank++ {
		s, err := rtm.GenerateShot(cfg, rank)
		if err != nil {
			return nil, err
		}
		all = append(all, s)
	}
	return rtm.Stats(all)
}

// Fig5 regenerates Figure 5 (a: uniform, b: variable): average
// checkpoint+restore throughput across 8 GPUs when the restore phase
// WAITS for all flushes.
func Fig5(run Run, uniform bool) (FigureResult, error) {
	base := ShotConfig{Uniform: uniform, WaitForFlush: true}
	run.Apply(&base)
	rows, err := runCombos(base, Table1(), []rtm.Order{rtm.Sequential, rtm.Reverse, rtm.Irregular})
	variant := map[bool]string{true: "5a (uniform)", false: "5b (variable)"}[uniform]
	return FigureResult{
		ID:    "Fig. " + variant,
		Title: "ckpt+restore throughput, 8 GPUs, WAIT for flushes",
		Rows:  rows,
	}, err
}

// Fig6 regenerates Figure 6: the restore phase starts immediately after
// the checkpoint phase (no flush drain; consumed checkpoints discardable).
func Fig6(run Run, uniform bool) (FigureResult, error) {
	base := ShotConfig{Uniform: uniform, WaitForFlush: false}
	run.Apply(&base)
	rows, err := runCombos(base, Table1(), []rtm.Order{rtm.Sequential, rtm.Reverse, rtm.Irregular})
	variant := map[bool]string{true: "6a (uniform)", false: "6b (variable)"}[uniform]
	return FigureResult{
		ID:    "Fig. " + variant,
		Title: "ckpt+restore throughput, 8 GPUs, NO WAIT",
		Rows:  rows,
	}, err
}

// Fig7 regenerates Figure 7: per-iteration restore rate and prefetch
// distance for the Score approach with sequential order and uniform
// sizes, for each hint budget.
func Fig7(run Run) (FigureResult, error) {
	out := FigureResult{
		ID:     "Fig. 7",
		Title:  "restore rate and prefetch distance per timestep (Score, sequential, uniform)",
		Series: map[string][]metrics.SeriesPoint{},
	}
	for _, hints := range []HintMode{NoHints, SingleHint, AllHints} {
		cfg := ShotConfig{Uniform: true, WaitForFlush: true,
			Order: rtm.Sequential, Combo: Combo{Score, hints}}
		run.Apply(&cfg)
		res, err := RunShot(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", hints, err)
		}
		merged := mergeRanks(res)
		out.Series[hints.String()] = merged.RestoreSeries
		out.Rows = append(out.Rows, Row{
			Combo: Combo{Score, hints}, Order: rtm.Sequential,
			GPUs:    len(res.PerRank),
			CkptBps: res.MeanCheckpointThroughput(),
			RestBps: res.MeanRestoreThroughput(),
			IOWait:  res.TotalIOWait(),
		})
	}
	return out, nil
}

// Fig8a regenerates Figure 8a: I/O throughput versus compute interval
// (irregular order, variable sizes).
func Fig8a(run Run, intervals []time.Duration) (FigureResult, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{10 * time.Millisecond, 15 * time.Millisecond,
			20 * time.Millisecond, 25 * time.Millisecond, 30 * time.Millisecond}
	}
	out := FigureResult{ID: "Fig. 8a", Title: "throughput vs compute interval (irregular, variable)"}
	combos := []Combo{{ADIOS2, NoHints}, {UVM, NoHints}, {Score, NoHints}, {UVM, AllHints}, {Score, AllHints}}
	for _, iv := range intervals {
		base := ShotConfig{Uniform: false, WaitForFlush: false, Interval: iv, Order: rtm.Irregular}
		run.Apply(&base)
		rows, err := runCombos(base, combos, []rtm.Order{rtm.Irregular})
		if err != nil {
			return out, err
		}
		for i := range rows {
			rows[i].Param = iv.String()
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// Fig8b regenerates Figure 8b: I/O throughput versus GPU cache size.
func Fig8b(run Run, caches []int64) (FigureResult, error) {
	if len(caches) == 0 {
		caches = []int64{run.GPUCache / 2, run.GPUCache, run.GPUCache * 2, run.GPUCache * 4}
	}
	out := FigureResult{ID: "Fig. 8b", Title: "throughput vs GPU cache size (irregular, variable)"}
	combos := []Combo{{ADIOS2, NoHints}, {UVM, NoHints}, {Score, NoHints}, {UVM, AllHints}, {Score, AllHints}}
	for _, cache := range caches {
		base := ShotConfig{Uniform: false, WaitForFlush: false, Order: rtm.Irregular}
		run.Apply(&base)
		base.GPUCache = cache
		rows, err := runCombos(base, combos, []rtm.Order{rtm.Irregular})
		if err != nil {
			return out, err
		}
		for i := range rows {
			rows[i].Param = fmt.Sprintf("%dMiB", cache>>20)
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// Fig9 regenerates Figure 9: scalability over GPU counts, tightly coupled
// (barrier every iteration) or embarrassingly parallel.
func Fig9(run Run, coupled bool, gpuCounts []int) (FigureResult, error) {
	if len(gpuCounts) == 0 {
		gpuCounts = []int{8, 16, 24, 32}
	}
	mode := map[bool]string{true: "9a (tightly coupled)", false: "9b (embarrassingly parallel)"}[coupled]
	out := FigureResult{ID: "Fig. " + mode, Title: "scalability over GPU count (variable sizes)"}
	combos := []Combo{{ADIOS2, NoHints}, {UVM, NoHints}, {Score, NoHints},
		{UVM, SingleHint}, {Score, SingleHint}, {UVM, AllHints}, {Score, AllHints}}
	for _, gpus := range gpuCounts {
		nodes := (gpus + 7) / 8
		perNode := gpus / nodes
		base := ShotConfig{
			Uniform: false, WaitForFlush: false, Order: rtm.Reverse,
			Nodes: nodes, GPUsPerNode: perNode, TightlyCoupled: coupled,
		}
		run.Apply(&base)
		rows, err := runCombos(base, combos, []rtm.Order{rtm.Reverse})
		if err != nil {
			return out, err
		}
		for i := range rows {
			rows[i].Param = fmt.Sprintf("%d GPUs", gpus)
			rows[i].GPUs = gpus
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// mergeRanks merges all per-rank summaries of a result.
func mergeRanks(res ShotResult) metrics.Summary {
	return res.MergedSummary()
}
