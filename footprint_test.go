package score_test

import (
	"runtime"
	"testing"
	"time"

	"score"
)

// The shape of TestRankFootprintAllocs's shot: bench's wide_coupled at
// two nodes instead of 64.
const (
	footprintNodes    = 2
	footprintGPUs     = 8
	footprintVersions = 24
	footprintSize     = 64 << 20
)

// rankFootprintCeiling is the committed budget of TestRankFootprintAllocs:
// the measured 187.7 mallocs per rank (go1.24, linux/amd64) plus 8%.
// Per-version containers that grew from one element, a retry generator
// and a hedge-leg WaitGroup built at New, a histogram's counts held
// apart, the deep tiers' paths cut one by one and a map of health
// classes cost 255.7 before they were cut.
const rankFootprintCeiling = 202.7

// footprintShot runs one wide_coupled-shaped shot through the public API:
// every rank hints its restores in reverse, checkpoints its versions with
// a barrier across all ranks after each, drains, and restarts them in
// reverse with a barrier after each. It returns the mallocs per rank
// from NewSim to the last Close; no MetricsSummary is read.
func footprintShot(t *testing.T) float64 {
	t.Helper()
	const ranks = footprintNodes * footprintGPUs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := score.NewSim(score.WithNodes(footprintNodes), score.WithGPUsPerNode(footprintGPUs))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		clients := make([]*score.Client, ranks)
		for r := range clients {
			c, err := sim.NewClient(r/footprintGPUs, r%footprintGPUs,
				score.WithGPUCache(4<<30), score.WithHostCache(32<<30), score.WithAsyncHostInit())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			clients[r] = c
		}
		barriers := make([]*score.WaitGroup, 2*footprintVersions+1)
		for i := range barriers {
			barriers[i] = sim.NewWaitGroup()
			barriers[i].Add(ranks)
		}
		await := func(i int) {
			barriers[i].Done()
			barriers[i].Wait()
		}
		wg := sim.NewWaitGroup()
		for _, c := range clients {
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				for v := int64(footprintVersions - 1); v >= 0; v-- {
					c.PrefetchEnqueue(v)
				}
				for v := range int64(footprintVersions) {
					c.Compute(10 * time.Millisecond)
					if err := c.CheckpointVirtual(v, footprintSize); err != nil {
						t.Error(err)
					}
					await(int(v))
				}
				if err := c.WaitFlush(); err != nil {
					t.Error(err)
				}
				await(2 * footprintVersions)
				c.PrefetchStart()
				for k := range footprintVersions {
					v := int64(footprintVersions - 1 - k)
					if _, err := c.Restart(v); err != nil {
						t.Error(err)
					}
					c.Compute(10 * time.Millisecond)
					await(footprintVersions + k)
				}
			})
		}
		wg.Wait()
	})
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / ranks
}

// TestRankFootprintAllocs budgets what one rank costs the heap over a
// whole shot: its client, caches, queues and daemons, and the
// containers that hold its versions. A container that grows from one
// element, or an object built at New that the shot never uses, is paid
// once per rank and breaks it. The first shot warms the process's
// one-time state; the second is measured.
func TestRankFootprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	footprintShot(t)
	perRank := footprintShot(t)
	t.Logf("%.1f mallocs per rank", perRank)
	if perRank > rankFootprintCeiling {
		t.Errorf("%.1f mallocs per rank, ceiling %.1f", perRank, rankFootprintCeiling)
	}
}
