package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/layers.pprof")

func TestPercentileIsExact(t *testing.T) {
	xs := make([]int64, 200)
	for i := range xs {
		xs[i] = int64(1000 - i) // unsorted on purpose: 801..1000
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 900}, {99, 998}, {99.5, 999}, {100, 1000}, {0.1, 801}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("P%v = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("P99 of nothing = %d, want 0", got)
	}
}

// Expected values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	// Children overlap each other and one runs past the parent: the
	// cover is [10,50) and [70,100), 70 of the parent's 100.
	children := [][2]int64{{70, 120}, {10, 30}, {20, 50}}
	if got := selfTime(0, 100, children); got != 30 {
		t.Errorf("self time = %d, want 30", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("childless self time = %d, want 100", got)
	}
	spans := []span{
		{ID: 1, Kind: spanWorkload, WallStart: 0, WallEnd: 200},
		{ID: 2, Parent: 1, Kind: spanShot, WallStart: 0, WallEnd: 100},
		{ID: 3, Parent: 2, Kind: spanCheckpoint, WallStart: 10, WallEnd: 30},
		{ID: 4, Parent: 2, Kind: spanRestart, WallStart: 20, WallEnd: 50},
	}
	if self, total := shotSelfWall(spans); self != 60 || total != 100 {
		t.Errorf("shot self/total = %d/%d, want 60/100", self, total)
	}
}

// Minimal profile.proto writer, enough to build the fixture.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbInt(b []byte, field int, v uint64) []byte { return pbVarint(pbVarint(b, uint64(field)<<3), v) }

func pbBytes(b []byte, field int, data []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(data))), data...)
}

// fixtureStacks are leaf-first stacks with their CPU nanoseconds. Frames
// joined by "<" share one location: the left one is inlined into the
// right one.
var fixtureStacks = []struct {
	frames []string
	ns     uint64
}{
	{[]string{"runtime.mallocgc", "score/internal/cachebuf.(*Buffer).reserve",
		"score/internal/core.(*Client).Checkpoint", "score.(*Client).CheckpointVirtual", "main.runRank"}, 40},
	{[]string{"score/internal/simclock.(*Virtual).Sleep", "score/internal/device.(*GPU).Compute<main.runRank"}, 30},
	{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 20},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 10},
}

func buildFixture() []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof, locs, funcs []byte
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		prof = pbBytes(prof, 1, pbInt(pbInt(nil, 1, intern(vt[0])), 2, intern(vt[1])))
	}
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	for _, st := range fixtureStacks {
		var ids []byte
		for _, loc := range st.frames {
			if _, ok := locID[loc]; !ok {
				locID[loc] = uint64(len(locID) + 1)
				msg := pbInt(nil, 1, locID[loc])
				for _, fn := range bytes.Split([]byte(loc), []byte("<")) {
					name := string(fn)
					if _, ok := funcID[name]; !ok {
						funcID[name] = uint64(len(funcID) + 1)
						funcs = pbBytes(funcs, 5, pbInt(pbInt(nil, 1, funcID[name]), 2, intern(name)))
					}
					msg = pbBytes(msg, 4, pbInt(nil, 1, funcID[name]))
				}
				locs = pbBytes(locs, 4, msg)
			}
			ids = pbVarint(ids, locID[loc])
		}
		values := pbVarint(pbVarint(nil, 1), st.ns)
		prof = pbBytes(prof, 2, pbBytes(pbBytes(nil, 1, ids), 2, values))
	}
	prof = append(append(prof, locs...), funcs...)
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(prof)
	zw.Close()
	return zipped.Bytes()
}

func TestLayerSharesOnFixture(t *testing.T) {
	path := filepath.Join("testdata", "layers.pprof")
	if *update {
		if err := os.WriteFile(path, buildFixture(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(fixtureStacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(fixtureStacks))
	}
	wantInlined := []string{"score/internal/simclock.(*Virtual).Sleep", "score/internal/device.(*GPU).Compute", "main.runRank"}
	if !reflect.DeepEqual(samples[1].frames, wantInlined) {
		t.Errorf("inlined stack = %v, want %v", samples[1].frames, wantInlined)
	}
	sh := aggregateLayers(samples)
	wantSelf := map[string]float64{"cachebuf": 0.4, "simclock": 0.3, bucketSched: 0.2, bucketGC: 0.1}
	wantCum := map[string]float64{"cachebuf": 0.4, "core": 0.4, bucketOther: 0.4, bucketHarness: 0.7, "simclock": 0.3, "device": 0.3}
	if !reflect.DeepEqual(sh.Self, wantSelf) {
		t.Errorf("self shares = %v, want %v", sh.Self, wantSelf)
	}
	if !reflect.DeepEqual(sh.Cum, wantCum) {
		t.Errorf("cum shares = %v, want %v", sh.Cum, wantCum)
	}
	var sum float64
	for _, v := range sh.Self {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || sh.TotalNs != 100 {
		t.Errorf("self shares sum to %v over %d ns, want 1 over 100", sum, sh.TotalNs)
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	per := result{Correct: true, Attempted: 5, Metrics: map[string]metric{"host.core.self_share": {0.25, "share"}}}
	want := runFile{Schema: runSchema, Seed: 7, Seconds: 10, GoMaxProcs: 2, GoVersion: "go1.24",
		Workloads: []workloadRuns{{Name: "rtm_hinted", PerLayer: &per, EndToEnd: []result{
			{Correct: true, Attempted: 100, Metrics: map[string]metric{"wall_s": {9.5, "s"}}},
			{Correct: true, Attempted: 100, Metrics: map[string]metric{"wall_s": {10.5, "s"}}},
		}}},
		Selfcheck: []checkResult{{Part: "a", Name: "rtm_hinted/wall_s", Pass: true, Detail: "ok"}},
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeRunFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the run file:\n got %+v\nwant %+v", got, want)
	}
	if s := got.Workloads[0].samples("wall_s"); !reflect.DeepEqual(s, []float64{9.5, 10.5}) {
		t.Errorf("samples = %v", s)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"other/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadRunFile(path); err == nil {
		t.Error("a foreign schema loaded without error")
	}
}

func TestCompareMarksNoisyParentUnresolved(t *testing.T) {
	s := spec{EndToEnd: []specMetric{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "sim_ckpt_gbps", Unit: "GB/s", Better: "higher", Bound: 0.03},
	}}
	mk := func(wall, gbps []float64) runFile {
		w := workloadRuns{Name: "w"}
		for i := range wall {
			w.EndToEnd = append(w.EndToEnd, result{Metrics: map[string]metric{
				"wall_s": {wall[i], "s"}, "sim_ckpt_gbps": {gbps[i], "GB/s"}}})
		}
		return runFile{Schema: runSchema, Workloads: []workloadRuns{w}}
	}
	a := mk([]float64{8, 10, 12, 14}, []float64{3.0, 3.0, 3.01, 3.01})
	b := mk([]float64{11, 11, 11, 11}, []float64{2.7, 2.7, 2.7, 2.7})
	rows := compareRuns(s, a, b)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].Verdict != verdictUnresolved {
		t.Errorf("wall_s with a 45%% parent spread: verdict %q, want %q", rows[0].Verdict, verdictUnresolved)
	}
	if rows[1].Verdict != verdictRegressed || rows[1].Worse < 0.09 {
		t.Errorf("sim_ckpt_gbps 3.005 → 2.7: verdict %q, worse %v", rows[1].Verdict, rows[1].Worse)
	}
	var buf bytes.Buffer
	if err := printCompare(&buf, rows); err != nil || !bytes.Contains(buf.Bytes(), []byte(verdictUnresolved)) {
		t.Errorf("table missing the verdict (err %v):\n%s", err, buf.String())
	}
}

// TestTinySmoke runs every workload once at tiny scale through both
// passes and holds the emitted names and units to BENCHMARK.json.
func TestTinySmoke(t *testing.T) {
	s, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		i, w := i, w
		t.Run(w.Name, func(t *testing.T) {
			outDir := t.TempDir()
			if s.Workloads[i].Name != w.Name || s.Workloads[i].Why != w.Why {
				t.Errorf("BENCHMARK.json has %q (%q), the harness %q (%q)",
					s.Workloads[i].Name, s.Workloads[i].Why, w.Name, w.Why)
			}
			for _, pass := range []struct {
				trace bool
				want  []specMetric
			}{{false, s.EndToEnd}, {true, s.PerLayer}} {
				res, err := run(runConfig{w: w, seed: 1, seconds: 1, trace: pass.trace, outDir: outDir, tiny: true})
				if err != nil {
					t.Fatalf("trace %v: %v", pass.trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %v: correct %v, %d of %d failed", pass.trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(pass.want) {
					t.Errorf("trace %v: %d metrics emitted, BENCHMARK.json lists %d", pass.trace, len(res.Metrics), len(pass.want))
				}
				for _, m := range pass.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace %v: %s not emitted", pass.trace, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			}
			for _, f := range []string{"trace_" + w.Name + ".json", "layers_" + w.Name + ".txt"} {
				if st, err := os.Stat(filepath.Join(outDir, f)); err != nil || st.Size() == 0 {
					t.Errorf("traced run left no %s (%v)", f, err)
				}
			}
		})
	}
}
