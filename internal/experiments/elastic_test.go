package experiments

import (
	"reflect"
	"testing"
)

// TestElasticShrink is the acceptance scenario in the shrink direction:
// 4 ranks' state re-sharded onto 2, every shard restored bit-exactly at
// the recomputed frontier, tracker seeded consistently at the new epoch.
func TestElasticShrink(t *testing.T) {
	res := elasticRow(t, 4, 2)
	if !res.Recoverable || res.RestoredShards != res.FromRanks {
		t.Fatalf("restored %d/%d shards: %+v", res.RestoredShards, res.FromRanks, res)
	}
	if res.Frontier != int64(3) {
		t.Errorf("frontier = %d, want 3 (clean shutdown commits every version)", res.Frontier)
	}
	if res.Committed != 4 {
		t.Errorf("committed = %d, want 4", res.Committed)
	}
	if !res.TrackerConsistent {
		t.Error("seeded tracker disagrees with the reshard frontier")
	}
}

// TestElasticGrow: the M > N direction — new ranks without a shard stay
// frontier-consistent, and every old shard still restores.
func TestElasticGrow(t *testing.T) {
	res := elasticRow(t, 2, 3)
	if !res.Recoverable || res.RestoredShards != 2 {
		t.Fatalf("restored %d/2 shards: %+v", res.RestoredShards, res)
	}
	if !res.TrackerConsistent {
		t.Error("grown membership's tracker disagrees with the reshard frontier")
	}
}

// TestElasticDeterministic: the same Run, fresh roots, identical rows.
func TestElasticDeterministic(t *testing.T) {
	a, err := Elastic(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Elastic(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("elastic restart not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// elasticRow runs the paper-scale Elastic sweep and returns the row of
// the from → to transition.
func elasticRow(t *testing.T, from, to int) ElasticRow {
	t.Helper()
	res, err := Elastic(Run{Scale: Full()})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.FromRanks == from && row.ToRanks == to {
			return row
		}
	}
	t.Fatalf("no %d -> %d row in %+v", from, to, res)
	return ElasticRow{}
}
