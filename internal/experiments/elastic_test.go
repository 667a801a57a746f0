package experiments

import (
	"reflect"
	"testing"
)

// TestElasticShrink is the acceptance scenario in the shrink direction:
// 4 ranks' state re-sharded onto 2, every shard restored bit-exactly at
// the recomputed frontier, tracker seeded consistently at the new epoch.
func TestElasticShrink(t *testing.T) {
	res, err := Elastic(Run{Scale: Full()}, ElasticConfig{StoreRoot: t.TempDir(), FromRanks: 4, ToRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Elastic(Run{Scale: Full()}, ElasticConfig{StoreRoot: t.TempDir(), FromRanks: 2, ToRanks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recoverable || res.RestoredShards != 2 {
		t.Fatalf("restored %d/2 shards: %+v", res.RestoredShards, res)
	}
	if !res.TrackerConsistent {
		t.Error("grown membership's tracker disagrees with the reshard frontier")
	}
}

// TestElasticDeterministic: same config, fresh roots, identical result.
func TestElasticDeterministic(t *testing.T) {
	a, err := Elastic(Run{Scale: Full()}, ElasticConfig{StoreRoot: t.TempDir(), FromRanks: 4, ToRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Elastic(Run{Scale: Full()}, ElasticConfig{StoreRoot: t.TempDir(), FromRanks: 4, ToRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("elastic restart not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestElasticRequiresStoreRoot: the config contract is explicit.
func TestElasticRequiresStoreRoot(t *testing.T) {
	if _, err := Elastic(Run{Scale: Full()}, ElasticConfig{}); err == nil {
		t.Fatal("want error without StoreRoot")
	}
}
