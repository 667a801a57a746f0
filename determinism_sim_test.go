// Determinism property tests for the simulator engine itself: the timer
// wheel must be observation-equivalent to the reference heap, and two
// runs must agree on every observable total and the
// deterministically-ordered trace — byte for byte. These are the
// contracts DESIGN.md §14 states; the goldens pin them for the full
// runtime, this test pins them for the engine in isolation.
package score_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/simclock"
	"score/internal/trace"
)

// simScenarioFingerprint runs a fixed multi-rank compute/flush/restore
// scenario under the given clock options and renders everything
// observable — per-rank lifecycle ledgers, merged metric totals, link
// byte counters, and the final virtual time — into one string.
//
// The scenario quantizes compute times to a few values so ranks form
// same-instant cohorts: the case where tie-break order matters most,
// and therefore the sharpest determinism probe.
func simScenarioFingerprint(t *testing.T, opts ...simclock.VirtualOption) string {
	t.Helper()
	const (
		ranks  = 64
		nlinks = 8
		rounds = 6
	)
	clk := simclock.NewVirtual(opts...)
	tr := trace.New(clk.Now)
	flight := tr.Flight()
	links := make([]*fabric.Link, nlinks)
	for i := range links {
		links[i] = fabric.NewLink(clk, fmt.Sprintf("link%d", i), 25*fabric.GB, time.Microsecond)
	}
	recs := make([]*metrics.Recorder, ranks)
	for r := range recs {
		recs[r] = metrics.NewRecorder()
	}

	clk.Run(func() {
		wg := simclock.NewWaitGroup(clk)
		for r := 0; r < ranks; r++ {
			r := r
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				rec := recs[r]
				l := links[r%nlinks]
				for k := 0; k < rounds; k++ {
					// Quantized compute: 4 distinct values -> cohorts of ~16.
					jitter := ((r*7 + k*13) % 4) * 25
					clk.Sleep(time.Duration(100+jitter) * time.Microsecond)
					v := int64(k)
					flight.Record(r, v, trace.LCreated, "gpu", "")
					bytes := int64(1<<20) + int64(r%3)<<12
					rec.CheckpointAccepted(bytes)
					start := clk.Now()
					if _, err := l.TryTransfer(bytes); err != nil {
						t.Error(err)
						return
					}
					d := clk.Now() - start
					rec.Checkpoint(bytes, d)
					rec.ObserveDuration(metrics.HistFlushPrefix+"gpu", d)
					rec.ConserveDurable(bytes)
					flight.Record(r, v, trace.LDurable, "ssd", "")
					if k%2 == 1 {
						rstart := clk.Now()
						if _, err := l.TryTransfer(bytes / 2); err != nil {
							t.Error(err)
							return
						}
						rec.Restore(k, bytes/2, clk.Now()-rstart, k%3)
						flight.Record(r, v, trace.LRestored, "gpu", "")
					}
				}
			})
		}
		wg.Wait()
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "final=%v\n", clk.Now())
	summaries := make([]metrics.Summary, ranks)
	for r := range recs {
		summaries[r] = recs[r].Snapshot()
	}
	merged, err := json.Marshal(metrics.Merge(summaries...))
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(merged)
	sb.WriteByte('\n')
	for _, l := range links {
		st := l.StatsSnapshot()
		fmt.Fprintf(&sb, "link %s bytes=%d busy=%v\n", l.Name(), st.Bytes, st.Busy)
	}
	for _, r := range flight.Ranks() {
		for _, ev := range flight.Ledger(r) {
			fmt.Fprintf(&sb, "%d %d %s %s %v\n", ev.Rank, ev.Version, ev.Kind, ev.Tier, ev.At)
		}
	}
	return sb.String()
}

// TestSimDeterminismWheelVsHeap: the default timer wheel and the
// reference heap must produce byte-identical observations.
func TestSimDeterminismWheelVsHeap(t *testing.T) {
	wheel := simScenarioFingerprint(t)
	heap := simScenarioFingerprint(t, simclock.WithHeapTimers())
	if wheel != heap {
		t.Fatalf("wheel and heap timer backends diverged:\nwheel:\n%s\nheap:\n%s", wheel, heap)
	}
}

// TestSimDeterminismRepeatable: the engine's own baseline — two serial
// runs of the same scenario are byte-identical.
func TestSimDeterminismRepeatable(t *testing.T) {
	a := simScenarioFingerprint(t)
	b := simScenarioFingerprint(t)
	if a != b {
		t.Fatal("two serial runs of the same scenario diverged")
	}
}
