package score_test

import (
	"flag"
	"testing"

	"score/internal/cachebuf"
	"score/internal/experiments"
	"score/internal/report"
)

// evictOut, when set, makes the smoke test write the ablation matrix as
// a bench-record JSON file (make bench-evict passes BENCH_evict.json).
var evictOut = flag.String("evict.out", "", "write eviction-ablation bench records to this JSON file")

// TestEvictionMatrixSmoke is the `make bench-evict` gate: the full
// policy × workload ablation matrix at bench scale, with two hit-rate
// sanity gates:
//
//   - the paper's score policy must never trail LRU on the RTM restore
//     scan (it sees the restore order; LRU only sees recency);
//   - at least one DBMS-inspired policy (LRU-K, 2Q, ARC, CLOCK-Pro)
//     must beat LRU on the KV-cache reuse workload — the scan bursts
//     that pollute pure recency are exactly what those policies filter.
func TestEvictionMatrixSmoke(t *testing.T) {
	res, err := experiments.EvictionMatrix(benchRun())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(cachebuf.Policies()) * 2
	if len(res.Cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d", len(res.Cells), wantCells)
	}
	for _, c := range res.Cells {
		if c.Accesses == 0 {
			t.Errorf("%s/%s: no accesses measured", c.Workload, c.Policy)
		}
		if c.Evictions == 0 {
			t.Errorf("%s/%s: no evictions; workload is not applying cache pressure", c.Workload, c.Policy)
		}
	}

	cell := func(workload string, pol cachebuf.Policy) experiments.EvictCell {
		c, ok := res.Cell(workload, pol.String())
		if !ok {
			t.Fatalf("matrix is missing cell %s/%s", workload, pol)
		}
		return c
	}

	if s, l := cell("rtm", cachebuf.PolicyScore), cell("rtm", cachebuf.PolicyLRU); s.HitRate() < l.HitRate() {
		t.Errorf("score hit rate %.3f below LRU %.3f on the RTM workload", s.HitRate(), l.HitRate())
	}
	lruKV := cell("kv", cachebuf.PolicyLRU)
	beating := 0
	for _, pol := range []cachebuf.Policy{cachebuf.PolicyLRUK, cachebuf.Policy2Q, cachebuf.PolicyARC, cachebuf.PolicyClockPro} {
		if cell("kv", pol).HitRate() > lruKV.HitRate() {
			beating++
		}
	}
	if beating == 0 {
		t.Errorf("no DBMS-inspired policy beats LRU (hit rate %.3f) on the KV-cache workload", lruKV.HitRate())
	}

	if *evictOut != "" {
		records := res.BenchRecords()
		if err := report.BenchFile.WriteFile(*evictOut, records); err != nil {
			t.Fatalf("writing %s: %v", *evictOut, err)
		}
		t.Logf("wrote %d bench records to %s", len(records), *evictOut)
	}
}
