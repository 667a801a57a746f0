package score_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"score"
)

// TestStatsReadsWhatTheSummaryHolds: Client.Stats reads the recorder in
// place, MetricsSummary copies it, and both must describe the same books.
// A shot whose SSD dies mid-run fills the per-tier maps (retries,
// degradations) and forces fallback reads; after it, every Stats field
// equals the value derived from MetricsSummary by name — the Summary
// method of that name, else its Total<name> method, else its field.
func TestStatsReadsWhatTheSummaryHolds(t *testing.T) {
	const n = 8
	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(7,
		score.FailAfter(score.FaultNVMe, 2*time.Millisecond),
		score.FailAfter(score.FaultStoreWrite, 2*time.Millisecond))
	sim.Run(func() {
		c, err := sim.NewClient(0, 0,
			score.WithGPUCache(512<<10), score.WithHostCache(512<<10),
			score.WithStore(t.TempDir()), score.WithPFSStore(t.TempDir()),
			score.WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		payloads := make([][]byte, n)
		for v := range payloads {
			payloads[v] = bytes.Repeat([]byte{byte(v + 1)}, 256<<10)
			if err := c.Checkpoint(int64(v), payloads[v]); err != nil {
				t.Fatalf("checkpoint %d: %v", v, err)
			}
			c.Compute(time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		for v := n - 1; v >= 0; v-- {
			got, err := c.Restart(int64(v))
			if err != nil {
				t.Fatalf("restart %d: %v", v, err)
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Fatalf("restart %d: not bit-exact", v)
			}
		}

		sum := c.MetricsSummary()
		if len(sum.Retries) == 0 || len(sum.Degradations) == 0 || sum.FallbackReads == 0 {
			t.Fatalf("shot too tame: retries %v, degradations %v, %d fallback reads",
				sum.Retries, sum.Degradations, sum.FallbackReads)
		}
		got := reflect.ValueOf(c.Stats())
		want := reflect.ValueOf(sum)
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			var w reflect.Value
			if m := want.MethodByName(name); m.IsValid() {
				w = m.Call(nil)[0]
			} else if m := want.MethodByName("Total" + name); m.IsValid() {
				w = m.Call(nil)[0]
			} else {
				w = want.FieldByName(name)
			}
			if !w.IsValid() {
				t.Errorf("Stats.%s has no counterpart in metrics.Summary", name)
				continue
			}
			if g := got.Field(i).Interface(); !reflect.DeepEqual(g, w.Interface()) {
				t.Errorf("Stats.%s = %v, MetricsSummary gives %v", name, g, w.Interface())
			}
		}
	})
}
