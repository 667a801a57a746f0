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
// waits, fragmentation). Full() is the paper's configuration. No field
// has a default: every one must be positive.
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

// check is the one test of a complete scale, run wherever a driver first
// reads one: a shot's entry point, or a driver that runs no shot.
func (s Scale) check() error {
	if s.Snapshots <= 0 || s.UniformSize <= 0 || s.GPUCache <= 0 || s.HostCache <= 0 ||
		s.Aggregate <= 0 || s.Bandwidth <= 0 {
		return fmt.Errorf("experiments: incomplete Scale %+v: every field must be positive (start from Full() or Small())", s)
	}
	return nil
}

// TraceConfig is the variable-size RTM trace generator at this scale; an
// incomplete scale's is as incomplete, and check rejects both.
func (s Scale) TraceConfig() rtm.TraceConfig {
	cfg := rtm.DefaultTraceConfig()
	cfg.Snapshots = s.Snapshots
	if s.Snapshots > 0 {
		cfg.MeanSize = s.Aggregate / int64(s.Snapshots)
	}
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

// runCombos sweeps Table 1 combos × orders for one base config. param
// names the value a figure sweeps, if any, in the rows and, with the
// figure's scenario name, the combo and the order, in each shot's label,
// so every shot of every figure has its own.
func runCombos(base ShotConfig, name, param string, combos []Combo, orders []rtm.Order) ([]Row, error) {
	var rows []Row
	for _, order := range orders {
		for _, combo := range combos {
			cfg := base
			cfg.Order = order
			cfg.Combo = combo
			cfg.Label = fmt.Sprintf("%s/%s (%s, %s", name, combo.Label(), restoreMode(cfg.WaitForFlush), order)
			if param != "" {
				cfg.Label += ", " + param
			}
			cfg.Label += ")"
			res, err := RunShot(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", combo.Label(), order, err)
			}
			row := rowOf(res)
			row.Param = param
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// rowOf is a shot's figure row: its combo, order and throughputs.
func rowOf(res ShotResult) Row {
	return Row{
		Combo: res.Config.Combo, Order: res.Config.Order,
		GPUs:    len(res.PerRank),
		CkptBps: res.MeanCheckpointThroughput(),
		RestBps: res.MeanRestoreThroughput(),
		IOWait:  res.TotalIOWait(),
	}
}

// Fig4 regenerates the snapshot-size distribution of Figure 4: min, avg,
// and max sizes per snapshot across 32 ranks' shots.
func Fig4(scale Scale) ([]rtm.SnapshotStats, error) {
	if err := scale.check(); err != nil {
		return nil, err
	}
	cfg := scale.TraceConfig()
	var all []rtm.Shot
	for rank := 0; rank < 32; rank++ {
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
	return tableOne(run, uniform, true, "5", "ckpt+restore throughput, 8 GPUs, WAIT for flushes")
}

// Fig6 regenerates Figure 6: the restore phase starts immediately after
// the checkpoint phase (no flush drain; consumed checkpoints discardable).
func Fig6(run Run, uniform bool) (FigureResult, error) {
	return tableOne(run, uniform, false, "6", "ckpt+restore throughput, 8 GPUs, NO WAIT")
}

// tableOne runs every Table 1 combo in the three restore orders: figure
// fig's a (uniform sizes) or b (variable sizes) variant.
func tableOne(run Run, uniform, wait bool, fig, title string) (FigureResult, error) {
	base := run.Shot()
	base.Uniform, base.WaitForFlush = uniform, wait
	variant := map[bool]string{true: "a (uniform)", false: "b (variable)"}[uniform]
	rows, err := runCombos(base, "fig"+fig+variant[:1], "", Table1(), []rtm.Order{rtm.Sequential, rtm.Reverse, rtm.Irregular})
	return FigureResult{ID: "Fig. " + fig + variant, Title: title, Rows: rows}, err
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
		cfg := run.Shot()
		cfg.Uniform, cfg.WaitForFlush, cfg.Order, cfg.Combo = true, true, rtm.Sequential, Combo{Score, hints}
		res, err := RunShot(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", hints, err)
		}
		out.Series[hints.String()] = res.MergedSummary().RestoreSeries
		out.Rows = append(out.Rows, rowOf(res))
	}
	return out, nil
}

// Fig8a regenerates Figure 8a: I/O throughput versus compute interval,
// 10 ms to 30 ms in 5 ms steps (irregular order, variable sizes).
func Fig8a(run Run) (FigureResult, error) {
	out := FigureResult{ID: "Fig. 8a", Title: "throughput vs compute interval (irregular, variable)"}
	combos := []Combo{{ADIOS2, NoHints}, {UVM, NoHints}, {Score, NoHints}, {UVM, AllHints}, {Score, AllHints}}
	for iv := 10 * time.Millisecond; iv <= 30*time.Millisecond; iv += 5 * time.Millisecond {
		base := run.Shot()
		base.Interval, base.Order = iv, rtm.Irregular
		rows, err := runCombos(base, "fig8a", iv.String(), combos, []rtm.Order{rtm.Irregular})
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// Fig8b regenerates Figure 8b: I/O throughput versus GPU cache size, at
// half, once, twice and four times the Run's GPU cache.
func Fig8b(run Run) (FigureResult, error) {
	out := FigureResult{ID: "Fig. 8b", Title: "throughput vs GPU cache size (irregular, variable)"}
	combos := []Combo{{ADIOS2, NoHints}, {UVM, NoHints}, {Score, NoHints}, {UVM, AllHints}, {Score, AllHints}}
	for _, cache := range []int64{run.GPUCache / 2, run.GPUCache, run.GPUCache * 2, run.GPUCache * 4} {
		base := run.Shot()
		base.Order, base.GPUCache = rtm.Irregular, cache
		rows, err := runCombos(base, "fig8b", fmt.Sprintf("%dMiB", cache>>20), combos, []rtm.Order{rtm.Irregular})
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// Fig9 regenerates Figure 9: scalability over 8, 16, 24 and 32 GPUs,
// tightly coupled (barrier every iteration) or embarrassingly parallel.
func Fig9(run Run, coupled bool) (FigureResult, error) {
	mode := map[bool]string{true: "9a (tightly coupled)", false: "9b (embarrassingly parallel)"}[coupled]
	out := FigureResult{ID: "Fig. " + mode, Title: "scalability over GPU count (variable sizes)"}
	combos := []Combo{{ADIOS2, NoHints}, {UVM, NoHints}, {Score, NoHints},
		{UVM, SingleHint}, {Score, SingleHint}, {UVM, AllHints}, {Score, AllHints}}
	for gpus := 8; gpus <= 32; gpus += 8 {
		nodes := (gpus + 7) / 8
		perNode := gpus / nodes
		base := run.Shot()
		base.Order, base.Nodes, base.GPUsPerNode, base.TightlyCoupled = rtm.Reverse, nodes, perNode, coupled
		rows, err := runCombos(base, "fig"+mode[:2], fmt.Sprintf("%d GPUs", gpus), combos, []rtm.Order{rtm.Reverse})
		if err != nil {
			return out, err
		}
		for i := range rows {
			rows[i].GPUs = gpus
		}
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}
