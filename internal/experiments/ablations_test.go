package experiments

import (
	"strings"
	"testing"

	"score/internal/cachebuf"
)

func TestAblationsSmokeAndShapes(t *testing.T) {
	// tiny() with a roomier GPU cache: the split-cache variant halves
	// it, and each half must still hold the largest variable checkpoint.
	run := tiny()
	run.GPUCache *= 4
	abl, err := Ablations(run)
	if err != nil {
		t.Fatal(err)
	}
	// One row per registered eviction policy plus the nine fixed
	// variants of the other principles.
	wantRows := len(cachebuf.Policies()) + 9
	if len(abl.Rows) != wantRows {
		t.Fatalf("ablation rows = %d, want %d", len(abl.Rows), wantRows)
	}
	byKey := map[string]AblationRow{}
	for _, r := range abl.Rows {
		byKey[r.Principle+"/"+r.Variant] = r
	}
	// Pre-allocation must beat on-demand on checkpoint throughput.
	pre := byKey["pre-allocation (§4.1.4)/preallocated"]
	ond := byKey["pre-allocation (§4.1.4)/on-demand"]
	if pre.CkptBps <= ond.CkptBps {
		t.Errorf("prealloc ckpt %.0f <= on-demand %.0f", pre.CkptBps, ond.CkptBps)
	}
	// At this reduced scale the io-wait difference can be small; allow
	// 10% tolerance (the full-scale run shows a clear 1.5x gap).
	if pre.IOWait > ond.IOWait*11/10 {
		t.Errorf("prealloc io-wait %v far above on-demand %v", pre.IOWait, ond.IOWait)
	}
	// The staged prefetcher must not be slower than serialized on the
	// SSD-tail shot.
	staged := byKey["multi-tier T_PF (§4.3.1)/staged"]
	serial := byKey["multi-tier T_PF (§4.3.1)/serialized"]
	if staged.RestBps < serial.RestBps*95/100 {
		t.Errorf("staged restore %.0f well below serialized %.0f", staged.RestBps, serial.RestBps)
	}
	// Chunked pipelining must not regress below monolithic on the
	// two-hop GPUDirect shot it is measured on.
	chunked := byKey["transfer pipelining (§4.3)/chunked"]
	mono := byKey["transfer pipelining (§4.3)/monolithic"]
	if chunked.CkptBps < mono.CkptBps {
		t.Errorf("chunked ckpt %.0f below monolithic %.0f", chunked.CkptBps, mono.CkptBps)
	}
	var b strings.Builder
	if err := abl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "eviction policy") {
		t.Error("rendered table missing rows")
	}
}
