package score_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"score"
)

// observerShotHashes hashes everything the observers of the observed
// shot hand out: the full Chrome export (spans, flow arrows, counter
// tracks), every rank's ledger with its drop count, and the sampled
// series, one SHA-256 each.
func observerShotHashes(t *testing.T, sim *score.Sim) map[string]string {
	t.Helper()
	sum := func(write func(h hash.Hash)) string {
		h := sha256.New()
		write(h)
		return hex.EncodeToString(h.Sum(nil))
	}
	out := map[string]string{}
	out["export"] = sum(func(h hash.Hash) {
		if err := sim.WriteTrace(h); err != nil {
			t.Fatal(err)
		}
	})
	fl := sim.Tracer().Flight()
	out["ledger"] = sum(func(h hash.Hash) {
		for _, rank := range fl.Ranks() {
			fmt.Fprintf(h, "rank %d dropped %d\n", rank, fl.Dropped(rank))
			for _, ev := range fl.Ledger(rank) {
				fmt.Fprintf(h, "%d %d %s %q %q %d\n", ev.Rank, ev.Version, ev.Kind, ev.Tier, ev.Detail, ev.At)
			}
		}
	})
	series := sim.SampledSeries()
	out["series"] = sum(func(h hash.Hash) {
		names := make([]string, 0, len(series))
		for name := range series {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s\n", name)
			for _, s := range series[name] {
				fmt.Fprintf(h, "%d %x\n", s.At, math.Float64bits(s.Value))
			}
		}
	})
	return out
}

// TestObserverShotOutputsPinned pins the observed shot's exported bytes
// across commits: a change to how the observers store or export their
// records must leave every hash in testdata/observer_shot.sha256 as it
// is. Regenerate with UPDATE_GOLDEN=1 go test -run
// TestObserverShotOutputsPinned . only after an intentional change to
// the export format or the simulated run.
func TestObserverShotOutputsPinned(t *testing.T) {
	const golden = "testdata/observer_shot.sha256"
	sim, _, _ := observerShot(t, true)
	got := observerShotHashes(t, sim)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s  %s\n", got[k], k)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if sum, k, ok := strings.Cut(sc.Text(), "  "); ok {
			want[k] = sum
		}
	}
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("observed shot's %s hashes to %s, golden %s", k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file holds %d hashes, the shot produces %d", len(want), len(got))
	}
}
