package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"score/internal/fabric"
	"score/internal/simclock"
	"score/internal/trace"
)

// TestPipelinedSpanNames pins the text of the post-hoc spans chunked
// streams record. Three 2 MiB versions overflow the 4 MiB GPU cache, so
// restoring version 0 promotes it. Under GPUDirect the flush to the SSD
// and the promotion back from it are two-hop streams and record a span
// each; through the host cache both streams are one PCIe hop, which has
// no pipeline, so they record none.
func TestPipelinedSpanNames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		direct bool
		want   []string
	}{
		{"host", false, nil},
		{"gpudirect", true, []string{
			"flush 0 gpu→ssd [4 chunks, 30ms overlapped]",
			"promote 0 ssd→gpu [4 chunks, 15ms overlapped]",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, func(clk *simclock.Virtual) {
				tr := trace.New(clk.Now)
				c := newRig(t, clk, func(p *Params) {
					p.Tracer = tr
					p.ChunkSize = MB / 2
					p.GPUDirectStorage = tc.direct
				}).client
				defer c.Close()
				for i := ID(0); i < 3; i++ {
					if err := c.Checkpoint(i, pay(2*MB)); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.WaitFlush(); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Restore(0); err != nil {
					t.Fatal(err)
				}
				var got []string
				promoted := false
				for _, ev := range tr.Events() {
					promoted = promoted || ev.Name == "promote 0 →gpu"
					if strings.HasPrefix(ev.Name, "flush 0 ") || strings.HasPrefix(ev.Name, "promote 0 ") {
						if strings.Contains(ev.Name, " chunks, ") {
							got = append(got, ev.Name)
						}
					}
				}
				if !promoted {
					t.Fatal("version 0 was not promoted")
				}
				slices.Sort(got)
				if !slices.Equal(got, tc.want) {
					t.Errorf("pipelined spans of version 0:\n got %q\nwant %q", got, tc.want)
				}
			})
		})
	}
}

// TestPipelinedSpanNameFormats pins the span text of every stream call
// site, the one-hop ones included: a pipelined stream's stats fed to
// observePipeline the way each site feeds its own.
func TestPipelinedSpanNameFormats(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		tr := trace.New(clk.Now)
		c := newRig(t, clk, func(p *Params) { p.Tracer = tr }).client
		defer c.Close()
		st := fabric.PipelineStats{Bytes: 4 * MB, Chunks: 4, Duration: 3 * time.Millisecond,
			Hops: 2, HopBusy: [fabric.MaxHops]time.Duration{2 * time.Millisecond, 2 * time.Millisecond}, HopBytes: [fabric.MaxHops]int64{4 * MB, 4 * MB}}
		c.observePipeline(5, false, "host", st, nil)
		c.observePipeline(5, false, "ssd", st, nil)
		c.observePipeline(5, true, "ssd", st, nil)
		c.observePipeline(5, true, "host", st, nil)
		want := []trace.Event{
			{Name: "flush 5 gpu→host [4 chunks, 1ms overlapped]", Category: "flush", Track: trace.TrackD2H},
			{Name: "flush 5 gpu→ssd [4 chunks, 1ms overlapped]", Category: "flush", Track: trace.TrackD2H},
			{Name: "promote 5 ssd→gpu [4 chunks, 1ms overlapped]", Category: "prefetch", Track: trace.TrackPF},
			{Name: "promote 5 host→gpu [4 chunks, 1ms overlapped]", Category: "prefetch", Track: trace.TrackPF},
		}
		got := tr.Events()
		byName := func(a, b trace.Event) int { return strings.Compare(a.Name, b.Name) }
		slices.SortFunc(got, byName)
		slices.SortFunc(want, byName)
		if len(got) != len(want) {
			t.Fatalf("%d spans recorded, want %d", len(got), len(want))
		}
		for i, ev := range got {
			w := want[i]
			w.Start, w.Duration, w.Flow = clk.Now()-st.Duration, st.Duration, c.flowID(5)
			if ev != w {
				t.Errorf("span %d = %+v, want %+v", i, ev, w)
			}
		}
	})
}
