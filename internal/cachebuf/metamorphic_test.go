package cachebuf

// Metamorphic properties of the eviction policies:
//
//  1. Score policy: the chosen eviction window is a function of the
//     oracle's scores over the buffer geometry, never of insertion
//     order. Permuting the same-instant insertion order of fragments
//     with identical scores ("unrelated" fragments) must not change the
//     chosen window's offset, nor which score class it sacrifices.
//  2. LRU is a stack algorithm under uniform fragment sizes: doubling
//     the capacity can never lower the hit count on the same access
//     trace (the inclusion property). FIFO and ARC are not stack
//     algorithms, so the property does not hold for them.

import (
	"fmt"
	"math/rand"
	"testing"

	"score/internal/simclock"
)

func permutations(ids []ID) [][]ID {
	if len(ids) <= 1 {
		return [][]ID{append([]ID(nil), ids...)}
	}
	var out [][]ID
	for i := range ids {
		rest := make([]ID, 0, len(ids)-1)
		rest = append(rest, ids[:i]...)
		rest = append(rest, ids[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]ID{ids[i]}, p...))
		}
	}
	return out
}

// TestMetamorphicScoreInsertOrderInvariance fills the buffer with two
// groups of same-scored checkpoints (near group: low prefetch distance,
// soon to be restored; far group: high distance) at the same virtual
// instant, then forces an eviction. Whatever order the group members
// were inserted in, and whichever feed the buffer reads its scores
// through, the score policy must evict the same window: the far group's
// region, at the same offset.
func TestMetamorphicScoreInsertOrderInvariance(t *testing.T) {
	near := []ID{0, 1, 2} // distance 3: restore imminent, keep
	far := []ID{3, 4, 5}  // distance 50: restore far away, sacrifice
	const fragSize = 100
	wantVictims := map[ID]bool{3: true, 4: true, 5: true}

	type outcome struct {
		off     int64
		victims map[ID]bool
	}
	var first *outcome
	for _, kind := range oracleKinds {
		for _, np := range permutations(near) {
			for _, fp := range permutations(far) {
				kind, np, fp := kind, np, fp
				runSim(t, func(clk *simclock.Virtual) {
					o := newDiffOracle(t)
					b := kind.build(clk, "meta", 600, o)
					for _, id := range append(append([]ID(nil), np...), fp...) {
						o.evictable[id] = true
						if listHas(np, id) {
							o.distance[id] = 3
						} else {
							o.distance[id] = 50
						}
						o.sync()
						if _, err := b.Reserve(id, fragSize); err != nil {
							t.Fatalf("insert %d: %v", id, err)
						}
					}
					o.victims = nil
					off, err := b.Reserve(10, 3*fragSize)
					if err != nil {
						t.Fatalf("eviction reserve: %v", err)
					}
					got := outcome{off: off, victims: map[ID]bool{}}
					for _, v := range o.victims {
						got.victims[v] = true
					}
					if first == nil {
						first = &got
						for id := range got.victims {
							if !wantVictims[id] {
								t.Fatalf("order %v/%v: evicted near-group id %d", np, fp, id)
							}
						}
						return
					}
					if got.off != first.off {
						t.Errorf("%s, order %v/%v: window offset %d, first order chose %d", kind.name, np, fp, got.off, first.off)
					}
					if fmt.Sprint(got.victims) != fmt.Sprint(first.victims) {
						t.Errorf("%s, order %v/%v: victim set %v, first order chose %v", kind.name, np, fp, got.victims, first.victims)
					}
				})
			}
		}
	}
}

// hitCount replays a fixed access trace (uniform fragment sizes, all
// checkpoints always evictable, no pins) against a buffer of the given
// capacity, read through feed, and returns the number of hits.
func hitCount(t *testing.T, pol Policy, capacity int64, seed int64,
	feed func(*simclock.Virtual, string, int64, *diffOracle) *Buffer) int {
	t.Helper()
	const (
		fragSize = 10
		idSpace  = 20
		accesses = 600
	)
	hits := 0
	runSim(t, func(clk *simclock.Virtual) {
		o := newDiffOracle(t)
		b := feed(clk, "hits", capacity, o)
		if err := b.SetPolicy(pol); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < accesses; i++ {
			// Mild skew: half the accesses go to a quarter of the ids.
			var id ID
			if rng.Intn(2) == 0 {
				id = ID(rng.Intn(idSpace / 4))
			} else {
				id = ID(rng.Intn(idSpace))
			}
			if _, _, ok := b.Contains(id); ok {
				hits++
				b.Touch(id)
				continue
			}
			o.evictable[id] = true
			o.sync()
			if _, err := b.TryReserve(id, fragSize); err != nil {
				t.Fatalf("access %d: reserve %d: %v", i, id, err)
			}
		}
	})
	return hits
}

// TestMetamorphicCapacityMonotonicity: for the stack policy, a larger
// cache can never hit less on the same trace.
func TestMetamorphicCapacityMonotonicity(t *testing.T) {
	for _, pol := range []Policy{PolicyLRU} {
		pol := pol
		for _, kind := range oracleKinds {
			kind := kind
			t.Run(pol.String()+"/"+kind.name, func(t *testing.T) {
				for seed := int64(1); seed <= 8; seed++ {
					small := hitCount(t, pol, 50, seed, kind.build)
					big := hitCount(t, pol, 100, seed, kind.build)
					if big < small {
						t.Errorf("seed %d: doubling capacity lowered hits: %d -> %d", seed, small, big)
					}
					if small == 0 {
						t.Errorf("seed %d: trace produced no hits at the small capacity", seed)
					}
				}
			})
		}
	}
}
