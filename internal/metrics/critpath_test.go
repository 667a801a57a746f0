package metrics

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// randomAttributions draws n seeded records in both forms: some with no
// charges, some with every component charged, durations up to an hour.
func randomAttributions(seed int64, n int) ([]CritPathRecord, []Attribution) {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]CritPathRecord, n)
	atts := make([]Attribution, n)
	for i := range recs {
		op := CritDurable
		if rng.Intn(2) == 0 {
			op = CritRestore
		}
		a := Attribution{Op: op, Version: int64(rng.Intn(500)), Start: time.Duration(rng.Int63n(int64(time.Hour)))}
		comps := map[string]time.Duration{}
		for c := range a.Comps {
			if rng.Intn(3) == 0 {
				d := time.Duration(1 + rng.Int63n(int64(time.Hour)))
				a.Comps[c] = d
				comps[CompNames[c]] = d
				a.Total += d
			}
		}
		atts[i] = a
		recs[i] = CritPathRecord{Op: a.Op, Version: a.Version, Start: a.Start, Total: a.Total, Components: comps}
	}
	return recs, atts
}

// blockCaps are the capacities of b's blocks.
func blockCaps[T any](b blocks[T]) []int {
	caps := make([]int, len(b))
	for i, blk := range b {
		caps[i] = cap(blk)
	}
	return caps
}

// TestCritPathStoreMatchesTheRecords: records fed through CritPath and
// through Attribute give reflect.DeepEqual snapshots, both equal to the
// records fed in, in order, across more records than one block holds.
// The store's blocks start small and double up to the cap: none was
// regrown by append, which would have copied it.
func TestCritPathStoreMatchesTheRecords(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		recs, atts := randomAttributions(seed, 3000)
		byMap, byArray := NewRecorder(), NewRecorder()
		for i := range recs {
			byMap.CritPath(recs[i])
			byArray.Attribute(atts[i])
		}
		got := byMap.Snapshot()
		if want := byArray.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: CritPath and Attribute snapshots differ", seed)
		}
		if !reflect.DeepEqual(got.CritPaths, recs) {
			t.Fatalf("seed %d: the snapshot's records are not the records fed in", seed)
		}
		for _, caps := range [][]int{blockCaps(byArray.crit.heads), blockCaps(byArray.crit.charges)} {
			for i, c := range caps {
				if want := min(critBlockMin<<i, critBlockMax); c != want {
					t.Fatalf("seed %d: store blocks have capacities %v, want %d, doubling to %d", seed, caps, critBlockMin, critBlockMax)
				}
			}
		}
	}
}

// TestCritPathRejectsUnknownComponents: a component name outside the
// table panics, and the panic names it.
func TestCritPathRejectsUnknownComponents(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"xfer-tape"`) {
			t.Errorf("CritPath with an unknown component panicked with %q, want it named", msg)
		}
	}()
	NewRecorder().CritPath(CritPathRecord{Op: CritDurable, Total: time.Millisecond,
		Components: map[string]time.Duration{CompXferSSD: time.Microsecond, "xfer-tape": time.Millisecond}})
}

// TestRecorderChecksReadTheStoreInPlace: the recorder's own checks on a
// clean recorder with 1,000 records allocate nothing.
func TestRecorderChecksReadTheStoreInPlace(t *testing.T) {
	r := NewRecorder()
	_, atts := randomAttributions(1, 1000)
	for _, a := range atts {
		if a.Op == CritDurable {
			r.ConserveDurable(1)
		} else {
			r.Restore(0, 1, a.Total, 0)
		}
		r.CheckpointAccepted(1)
		r.Checkpoint(1, 0)
		r.Attribute(a)
	}
	r.ConserveDiscarded(int64(len(atts)) - r.Snapshot().DurableBytes)
	if err := r.CheckInvariantsQuiescent(); err != nil {
		t.Fatalf("setup: the recorder is not clean: %v", err)
	}
	for what, check := range map[string]func() error{
		"CheckInvariants":          r.CheckInvariants,
		"CheckInvariantsQuiescent": r.CheckInvariantsQuiescent,
	} {
		if n := testing.AllocsPerRun(20, func() { _ = check() }); n != 0 {
			t.Errorf("%s on a clean recorder with 1,000 records allocates %v times, want 0", what, n)
		}
	}
}
