package coord

import (
	"flag"
	"math/rand"
	"testing"
	"time"

	"score/internal/simclock"
)

var (
	reshardSeed   = flag.Int64("reshard.seed", 1, "base seed for the reshard concurrency property trials")
	reshardTrials = flag.Int("reshard.trials", 20, "number of seeded reshard concurrency property trials")
)

func TestReshardValidation(t *testing.T) {
	for _, bad := range []struct{ from, to, epoch int }{
		{0, 2, 1}, {2, 0, 1}, {2, 2, 0}, {-1, 2, 1}, {2, -1, 1}, {2, 2, -1},
	} {
		if _, err := NewReshard(bad.from, bad.to, bad.epoch); err == nil {
			t.Errorf("NewReshard(%d, %d, %d) accepted", bad.from, bad.to, bad.epoch)
		}
	}
	r, err := NewReshard(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.From() != 4 || r.To() != 2 || r.Epoch() != 3 {
		t.Fatalf("From/To/Epoch = %d/%d/%d", r.From(), r.To(), r.Epoch())
	}
}

func TestReshardCommittedIsIntersection(t *testing.T) {
	r, _ := NewReshard(3, 2, 1)
	// v0 held by all, v1 missing shard 2, v2 held by all.
	for s := 0; s < 3; s++ {
		r.MarkShardDurable(s, 0)
		r.MarkShardDurable(s, 2)
	}
	r.MarkShardDurable(0, 1)
	r.MarkShardDurable(1, 1)
	got := r.Committed()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Committed = %v, want [0 2]", got)
	}
	if v, ok := r.Frontier(); !ok || v != 2 {
		t.Fatalf("Frontier = (%d, %v), want (2, true)", v, ok)
	}
	// Out-of-range and negative reports are ignored, not fatal.
	r.MarkShardDurable(-1, 5)
	r.MarkShardDurable(3, 5)
	r.MarkShardDurable(0, -1)
	if got := r.Committed(); len(got) != 2 {
		t.Fatalf("Committed after junk reports = %v", got)
	}
}

func TestReshardRetractAndRecover(t *testing.T) {
	r, _ := NewReshard(2, 2, 1)
	for v := int64(0); v < 3; v++ {
		r.MarkShardDurable(0, v)
		r.MarkShardDurable(1, v)
	}
	r.RetractShard(1)
	if _, ok := r.Frontier(); ok {
		t.Fatal("frontier survives losing a shard that held every version")
	}
	if got := r.RetractedShards(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("RetractedShards = %v, want [1]", got)
	}
	// Partner-copy recovery re-marks the shard and clears the retraction.
	for v := int64(0); v < 3; v++ {
		r.MarkShardDurable(1, v)
	}
	if got := r.RetractedShards(); len(got) != 0 {
		t.Fatalf("RetractedShards after recovery = %v, want []", got)
	}
	if v, ok := r.Frontier(); !ok || v != 2 {
		t.Fatalf("Frontier after recovery = (%d, %v), want (2, true)", v, ok)
	}
}

func TestReshardOwnerAndShardsOf(t *testing.T) {
	r, _ := NewReshard(5, 2, 1)
	wantOwner := []int{0, 1, 0, 1, 0}
	for s, want := range wantOwner {
		if got := r.Owner(s); got != want {
			t.Errorf("Owner(%d) = %d, want %d", s, got, want)
		}
	}
	if r.Owner(-1) != -1 || r.Owner(5) != -1 {
		t.Error("out-of-range Owner must be -1")
	}
	if got := r.ShardsOf(0); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Errorf("ShardsOf(0) = %v, want [0 2 4]", got)
	}
	if got := r.ShardsOf(1); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("ShardsOf(1) = %v, want [1 3]", got)
	}
	// Every shard is adopted by exactly one rank.
	seen := map[int]int{}
	for rank := 0; rank < r.To(); rank++ {
		for _, s := range r.ShardsOf(rank) {
			seen[s]++
			if r.Owner(s) != rank {
				t.Errorf("shard %d listed under rank %d but Owner says %d", s, rank, r.Owner(s))
			}
		}
	}
	for s := 0; s < r.From(); s++ {
		if seen[s] != 1 {
			t.Errorf("shard %d adopted %d times", s, seen[s])
		}
	}
}

// TestReshardTrackerSeeding covers both directions: shrink (every new
// rank adopts shards) and grow (some ranks draw none but must still be
// frontier-consistent). The seeded tracker's LatestConsistent must equal
// the reshard's Frontier at the new epoch.
func TestReshardTrackerSeeding(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{4, 2}, {2, 5}, {3, 3}} {
		r, _ := NewReshard(tc.from, tc.to, 7)
		for s := 0; s < tc.from; s++ {
			for v := int64(0); v < 4; v++ {
				r.MarkShardDurable(s, v)
			}
		}
		// Shard 0 alone also holds v4: incomplete, must not commit.
		r.MarkShardDurable(0, 4)
		tr, err := r.Tracker()
		if err != nil {
			t.Fatalf("%d->%d: %v", tc.from, tc.to, err)
		}
		if tr.Epoch() != 7 {
			t.Errorf("%d->%d: epoch = %d, want 7", tc.from, tc.to, tr.Epoch())
		}
		want, wantOK := r.Frontier()
		got, ok := tr.LatestConsistent()
		if ok != wantOK || got != want {
			t.Errorf("%d->%d: LatestConsistent = (%d, %v), want (%d, %v)",
				tc.from, tc.to, got, ok, want, wantOK)
		}
		if want != 3 {
			t.Errorf("%d->%d: Frontier = %d, want 3", tc.from, tc.to, want)
		}
	}
}

// TestReshardConcurrentKillProperty is the seeded property sweep:
// shards report durability from concurrent scan tasks while a victim
// shard is killed mid-recipe and later re-established from its partner
// copy. Every task sleeps a seeded virtual interval between operations,
// so each trial interleaves them differently. Two properties hold at
// every concurrent sample:
//
//  1. The frontier is monotone under marks: with no retraction in
//     flight, a sampled frontier never decreases.
//  2. The committed set never includes a version a surviving shard has
//     not reported: every sampled committed version is covered by every
//     shard's journal of reports (the journal is written before the
//     mark, so the tracker can only lag it, never lead it).
//
// And at the end of every trial the recipe converges: frontier at the
// last version, nothing retracted, the seeded tracker consistent.
func TestReshardConcurrentKillProperty(t *testing.T) {
	for trial := 0; trial < *reshardTrials; trial++ {
		rng := rand.New(rand.NewSource(*reshardSeed + int64(trial)))
		from := 2 + rng.Intn(4) // 2..5 old shards
		to := 1 + rng.Intn(5)   // 1..5 new ranks: shrink, grow, or equal
		versions := int64(8 + rng.Intn(9))
		victim := rng.Intn(from)

		r, err := NewReshard(from, to, 1)
		if err != nil {
			t.Fatal(err)
		}

		// journal[s] is the highest version shard s has reported, written
		// BEFORE the mark reaches the tracker. -1 means none. Marks go in
		// ascending order, so one high-water mark per shard is the journal.
		journal := make([]int64, from)
		for s := range journal {
			journal[s] = -1
		}
		mark := func(shard int, v int64) {
			journal[shard] = v
			r.MarkShardDurable(shard, v)
		}
		clk := simclock.NewVirtual()
		pause := func() { clk.Sleep(time.Duration(1+rng.Intn(50)) * time.Microsecond) }

		// Phase A — every shard scans concurrently up to half the versions.
		half := versions / 2
		var sampleErr string
		clk.Run(func() {
			markers := simclock.NewWaitGroup(clk)
			sampler := simclock.NewWaitGroup(clk)
			done := false
			sampler.Add(1)
			clk.Go(func() { // property 1 and 2
				defer sampler.Done()
				last := int64(-1)
				for !done {
					if v, ok := r.Frontier(); ok {
						if v < last {
							sampleErr = "frontier moved backward under marks"
							return
						}
						last = v
					}
					for _, v := range r.Committed() {
						for s := 0; s < from; s++ {
							if journal[s] < v {
								sampleErr = "committed version not reported by every shard"
								return
							}
						}
					}
					pause()
				}
			})
			for s := 0; s < from; s++ {
				markers.Add(1)
				clk.Go(func() {
					defer markers.Done()
					for v := int64(0); v < half; v++ {
						mark(s, v)
						pause()
					}
				})
			}
			markers.Wait()
			done = true
			sampler.Wait()
		})
		if sampleErr != "" {
			t.Fatalf("trial %d (seed %d): %s", trial, *reshardSeed+int64(trial), sampleErr)
		}
		if v, ok := r.Frontier(); !ok || v != half-1 {
			t.Fatalf("trial %d: phase A frontier = (%d, %v), want (%d, true)", trial, v, ok, half-1)
		}

		// Phase B — survivors keep scanning while the victim dies
		// mid-recipe and its partner re-establishes it concurrently.
		clk.Run(func() {
			for s := 0; s < from; s++ {
				if s == victim {
					continue
				}
				clk.Go(func() {
					for v := half; v < versions; v++ {
						mark(s, v)
						pause()
					}
				})
			}
			clk.Go(func() { // the kill and the partner recovery
				r.RetractShard(victim)
				pause()
				for v := int64(0); v < versions; v++ {
					mark(victim, v)
					pause()
				}
			})
			clk.Go(func() { // a concurrent reader exercising every query
				for i := 0; i < 50; i++ {
					r.Frontier()
					r.Committed()
					r.RetractedShards()
					for rank := 0; rank < to; rank++ {
						r.ShardsOf(rank)
					}
					pause()
				}
			})
		})

		// Convergence: recovery re-marked everything, so the recipe ends
		// with the full frontier, no retraction, and a consistent tracker.
		if got := r.RetractedShards(); len(got) != 0 {
			t.Fatalf("trial %d: RetractedShards = %v after recovery", trial, got)
		}
		if v, ok := r.Frontier(); !ok || v != versions-1 {
			t.Fatalf("trial %d: final frontier = (%d, %v), want (%d, true)", trial, v, ok, versions-1)
		}
		if got := r.Committed(); int64(len(got)) != versions {
			t.Fatalf("trial %d: committed %d versions, want %d", trial, len(got), versions)
		}
		tr, err := r.Tracker()
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := tr.LatestConsistent(); !ok || v != versions-1 {
			t.Fatalf("trial %d: seeded tracker LatestConsistent = (%d, %v), want (%d, true)",
				trial, v, ok, versions-1)
		}
		if tr.Epoch() != 1 {
			t.Fatalf("trial %d: tracker epoch = %d, want 1", trial, tr.Epoch())
		}
	}
}
