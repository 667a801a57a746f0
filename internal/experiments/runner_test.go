package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"score/internal/rtm"
	"score/internal/slo"
	"score/internal/trace"
)

// tiny returns a fast test scale that still triggers evictions: the GPU
// cache holds ~4 checkpoints and the host cache ~16 of 48.
func tiny() Run {
	return Run{Scale: Scale{
		Snapshots:   48,
		UniformSize: 8 << 20,
		GPUCache:    32 << 20,
		HostCache:   128 << 20,
		Aggregate:   384 << 20,
		Bandwidth:   1.0 / 128, // keep bandwidth-to-data ratios paper-like
	}}
}

func tinyShot(combo Combo, order rtm.Order, wait bool, uniform bool) ShotConfig {
	cfg := ShotConfig{
		GPUsPerNode: 2, Uniform: uniform, WaitForFlush: wait,
		Order: order, Combo: combo, Interval: 2 * time.Millisecond,
	}
	tiny().Apply(&cfg)
	return cfg
}

func TestRunShotAllCombosComplete(t *testing.T) {
	for _, combo := range Table1() {
		combo := combo
		t.Run(combo.Label(), func(t *testing.T) {
			res, err := RunShot(tinyShot(combo, rtm.Reverse, true, true))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.PerRank) != 2 {
				t.Fatalf("ranks = %d, want 2", len(res.PerRank))
			}
			for _, rr := range res.PerRank {
				if rr.Summary.CheckpointOps != 48 || rr.Summary.RestoreOps != 48 {
					t.Errorf("rank %d: ops = %d/%d, want 48/48",
						rr.Rank, rr.Summary.CheckpointOps, rr.Summary.RestoreOps)
				}
			}
			if res.Duration <= 0 {
				t.Error("no simulated time elapsed")
			}
		})
	}
}

func TestRunShotVariableSizesAndOrders(t *testing.T) {
	for _, order := range []rtm.Order{rtm.Sequential, rtm.Reverse, rtm.Irregular} {
		res, err := RunShot(tinyShot(Combo{Score, AllHints}, order, false, false))
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		m := mergeRanks(res)
		if m.RestoreOps != 96 {
			t.Errorf("%v: restore ops = %d, want 96", order, m.RestoreOps)
		}
	}
}

func TestScoreBeatsBaselinesOnHintedRestore(t *testing.T) {
	// The paper's headline shape: with full hints and reverse order,
	// Score's restore throughput exceeds UVM's, which exceeds ADIOS2's.
	rest := map[Approach]float64{}
	for _, ap := range []Approach{ADIOS2, UVM, Score} {
		hints := AllHints
		if ap == ADIOS2 {
			hints = NoHints
		}
		res, err := RunShot(tinyShot(Combo{ap, hints}, rtm.Reverse, true, true))
		if err != nil {
			t.Fatal(err)
		}
		rest[ap] = res.MeanRestoreThroughput()
	}
	if !(rest[Score] > rest[UVM]) {
		t.Errorf("Score restore (%.0f) not faster than UVM (%.0f)", rest[Score], rest[UVM])
	}
	if !(rest[UVM] > rest[ADIOS2]) {
		t.Errorf("UVM restore (%.0f) not faster than ADIOS2 (%.0f)", rest[UVM], rest[ADIOS2])
	}
	if rest[Score] < 2*rest[UVM] {
		t.Logf("note: Score/UVM ratio %.1fx (paper reports >= 2x at full scale)", rest[Score]/rest[UVM])
	}
}

func TestHintsImproveScoreRestore(t *testing.T) {
	tp := map[HintMode]float64{}
	for _, h := range []HintMode{NoHints, SingleHint, AllHints} {
		res, err := RunShot(tinyShot(Combo{Score, h}, rtm.Reverse, true, true))
		if err != nil {
			t.Fatal(err)
		}
		tp[h] = res.MeanRestoreThroughput()
	}
	if !(tp[AllHints] > tp[NoHints]) {
		t.Errorf("all hints (%.0f) should beat no hints (%.0f)", tp[AllHints], tp[NoHints])
	}
}

func TestTightlyCoupledRuns(t *testing.T) {
	cfg := tinyShot(Combo{Score, AllHints}, rtm.Reverse, false, true)
	cfg.TightlyCoupled = true
	res, err := RunShot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := mergeRanks(res); m.RestoreOps != 96 {
		t.Errorf("restore ops = %d, want 96", m.RestoreOps)
	}
}

func TestMultiNodeRuns(t *testing.T) {
	cfg := tinyShot(Combo{Score, AllHints}, rtm.Reverse, false, false)
	cfg.Nodes = 2
	res, err := RunShot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRank) != 4 {
		t.Errorf("ranks = %d, want 4 (2 nodes x 2 GPUs)", len(res.PerRank))
	}
}

func TestComboAndModeLabels(t *testing.T) {
	if got := (Combo{Score, AllHints}).Label(); got != "All hints, Score" {
		t.Errorf("label = %q", got)
	}
	if len(Table1()) != 7 {
		t.Errorf("Table 1 has %d combos, want 7", len(Table1()))
	}
	if Approach(9).String() == "" || HintMode(9).String() == "" {
		t.Error("out-of-range enums should format")
	}
}

func TestFigureRendering(t *testing.T) {
	f := FigureResult{ID: "Fig. X", Title: "test", Rows: []Row{{
		Combo: Combo{Score, AllHints}, Order: rtm.Reverse, GPUs: 8,
		CkptBps: 1 << 30, RestBps: 2 << 30, IOWait: time.Second,
	}}}
	var b strings.Builder
	if err := f.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig. X", "All hints, Score", "1.00 GB/s", "2.00 GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

// watched collects the labels a run's observers are handed.
type watched struct{ shots, slos, traces []string }

// watch points run's observers at w; traced also turns per-shot tracing on.
func (w *watched) watch(run Run, traced bool) Run {
	run.OnShot = func(r ShotResult) { w.shots = append(w.shots, r.Label()) }
	run.OnSLO = func(l string, _ slo.Report) { w.slos = append(w.slos, l) }
	if traced {
		run.OnTrace = func(l string, tr *trace.Tracer) {
			if tr.Len() > 0 {
				w.traces = append(w.traces, l)
			}
		}
	}
	return run
}

// TestConcurrentShotsKeepTheirRun: a Run is a value, so two shots with
// different options can execute at once. Each observer must see only its
// own shot, and each result must equal the same shot run alone.
func TestConcurrentShotsKeepTheirRun(t *testing.T) {
	full := tiny() // sampled + traced + SLO
	full.SampleInterval = time.Millisecond
	full.SLO = true
	bare := tiny()

	// The no-hints Score combo: its numbers repeat exactly between runs.
	shot := func(run Run, label string) (ShotResult, error) {
		cfg := ShotConfig{
			GPUsPerNode: 2, Uniform: true, WaitForFlush: true, Order: rtm.Reverse,
			Combo: Combo{Score, NoHints}, Interval: 2 * time.Millisecond, Label: label,
		}
		run.Apply(&cfg)
		return RunShot(cfg)
	}
	var sawAlone, sawFull, sawBare watched
	aloneFull, err := shot(sawAlone.watch(full, true), "full")
	if err != nil {
		t.Fatal(err)
	}
	aloneBare, err := shot(sawAlone.watch(bare, false), "bare")
	if err != nil {
		t.Fatal(err)
	}

	var concFull, concBare ShotResult
	var errFull, errBare error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); concFull, errFull = shot(sawFull.watch(full, true), "full") }()
	go func() { defer wg.Done(); concBare, errBare = shot(sawBare.watch(bare, false), "bare") }()
	wg.Wait()
	if errFull != nil || errBare != nil {
		t.Fatalf("concurrent shots: full %v, bare %v", errFull, errBare)
	}

	if want := (watched{shots: []string{"full"}, slos: []string{"full"}, traces: []string{"full"}}); !reflect.DeepEqual(sawFull, want) {
		t.Errorf("full run's observers saw %+v, want %+v", sawFull, want)
	}
	if want := (watched{shots: []string{"bare"}}); !reflect.DeepEqual(sawBare, want) {
		t.Errorf("bare run's observers saw %+v, want %+v", sawBare, want)
	}
	for _, c := range []struct {
		name        string
		alone, conc ShotResult
	}{{"full", aloneFull, concFull}, {"bare", aloneBare, concBare}} {
		if c.alone.Duration != c.conc.Duration || !reflect.DeepEqual(c.alone.PerRank, c.conc.PerRank) ||
			!reflect.DeepEqual(c.alone.Series, c.conc.Series) || !reflect.DeepEqual(c.alone.SLO, c.conc.SLO) {
			t.Errorf("%s: concurrent result differs from the same shot run alone", c.name)
		}
	}
	if concFull.SLO == nil || len(concFull.Series) == 0 {
		t.Error("full shot lost its SLO report or sampled series")
	}
	if concBare.SLO != nil || concBare.Series != nil {
		t.Error("bare shot picked up the other run's SLO or sampling")
	}
}
