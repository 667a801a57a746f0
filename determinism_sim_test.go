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

	"score"
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

// hintedShotFingerprint runs one hinted two-rank shot through the public
// API — all hints, variable sizes, reverse order, restores starting while
// flushes are still in flight, caches far smaller than the history — and
// returns each rank's raw MetricsSummary JSON, the final virtual time and
// the number of engine wakeups the shot took.
func hintedShotFingerprint(t *testing.T) string {
	t.Helper()
	const ranks, n = 2, 48
	size := func(r, v int) int64 { return int64(24+(v*7+r*3)%17) << 20 }
	sim, err := score.NewSim(score.WithNodes(1), score.WithGPUsPerNode(ranks))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	wakes := simclock.EventCount()
	sim.Run(func() {
		clients := make([]*score.Client, ranks)
		for r := range clients {
			c, err := sim.NewClient(0, r, score.WithGPUCache(160<<20), score.WithHostCache(512<<20),
				score.WithAsyncHostInit(), score.WithDiscardAfterRestore())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			clients[r] = c
		}
		wg := sim.NewWaitGroup()
		for r, c := range clients {
			r, c := r, c
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				for v := n - 1; v >= 0; v-- {
					c.PrefetchEnqueue(int64(v))
				}
				for v := 0; v < n; v++ {
					c.Compute(time.Millisecond)
					if err := c.CheckpointVirtual(int64(v), size(r, v)); err != nil {
						t.Errorf("rank %d checkpoint %d: %v", r, v, err)
					}
				}
				c.PrefetchStart()
				for v := n - 1; v >= 0; v-- {
					if _, err := c.Restart(int64(v)); err != nil {
						t.Errorf("rank %d restart %d: %v", r, v, err)
					}
					c.Compute(time.Millisecond)
				}
			})
		}
		wg.Wait()
		for r, c := range clients {
			j, err := json.Marshal(c.MetricsSummary())
			if err != nil {
				t.Error(err)
			}
			fmt.Fprintf(&sb, "rank %d %s\n", r, j)
		}
	})
	fmt.Fprintf(&sb, "final=%v wakeups=%d\n", sim.Clock().Now(), simclock.EventCount()-wakes)
	return sb.String()
}

// TestSameSeedShotIsByteIdentical: equal inputs give equal bytes, down to
// same-instant record order and the engine's own wakeup count. Before one
// task ran at a time this diverged within a few repetitions.
func TestSameSeedShotIsByteIdentical(t *testing.T) {
	first := hintedShotFingerprint(t)
	for i := 2; i <= 5; i++ {
		if again := hintedShotFingerprint(t); again != first {
			t.Fatalf("run %d of the same shot differs from run 1:\n%s\nvs\n%s", i, first, again)
		}
	}
}
