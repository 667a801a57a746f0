package slab

import (
	"slices"
	"testing"
)

// rec is the size of a small per-version record with pointers in it.
type rec struct {
	id   int64
	next *rec
	pad  [40]byte
}

// big is as large as core's checkpoint record, 336 B: a block of them is
// over the 512 B at which the allocator puts a header on a
// pointer-holding object, so the room slices.Grow finds differs from the
// count asked for.
type big struct {
	id   int64
	next *big
	pad  [320]byte
}

func TestPointersStayValidAndAreNeverReused(t *testing.T) {
	var s Slab[rec]
	const n = 200 // several blocks of every size
	recs := make([]*rec, n)
	seen := make(map[*rec]bool, n)
	for i := range recs {
		r := s.New()
		if *r != (rec{}) {
			t.Fatalf("record %d is not zero: %+v", i, *r)
		}
		if seen[r] {
			t.Fatalf("record %d reuses the slot of an earlier one", i)
		}
		seen[r] = true
		r.id = int64(i)
		if i > 0 {
			r.next = recs[i-1]
		}
		recs[i] = r
	}
	for i, r := range recs {
		if r.id != int64(i) || (i > 0 && r.next != recs[i-1]) {
			t.Fatalf("record %d reads id %d after later blocks were cut", i, r.id)
		}
	}
}

// blockCaps returns the capacities of the first blocks s cuts: each is
// what slices.Grow gives for 8, 16, then 32 records.
func blockCaps[T any](t *testing.T, s *Slab[T], blocks int) []int {
	t.Helper()
	var caps []int
	for len(caps) < blocks {
		s.New()
		if len(s.block) == 1 {
			caps = append(caps, cap(s.block))
		}
	}
	return caps
}

func TestBlockCapacityIsTheSizeClassRoom(t *testing.T) {
	want := func(n int) int { return cap(slices.Grow([]big(nil), n)) }
	got := blockCaps(t, &Slab[big]{}, 5)
	if exp := []int{want(8), want(16), want(32), want(32), want(32)}; !slices.Equal(got, exp) {
		t.Errorf("block capacities %v, want %v", got, exp)
	}
	if got[0] <= 8 {
		t.Errorf("the first block holds %d records: no use made of the size class's rest", got[0])
	}
	wantRec := func(n int) int { return cap(slices.Grow([]rec(nil), n)) }
	if got := blockCaps(t, &Slab[rec]{}, 3); !slices.Equal(got, []int{wantRec(8), wantRec(16), wantRec(32)}) {
		t.Errorf("small-record block capacities %v, want %v", got, []int{wantRec(8), wantRec(16), wantRec(32)})
	}
}

var sink Slab[big]

func TestOnlyBlockBoundariesAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	caps := blockCaps(t, &Slab[big]{}, 4)
	n := 0
	for _, c := range caps {
		n += c
	}
	allocs := testing.AllocsPerRun(20, func() {
		sink = Slab[big]{}
		for i := 0; i < n; i++ {
			sink.New()
		}
	})
	if allocs != float64(len(caps)) {
		t.Errorf("%d records over %d blocks allocate %v times, want %d", n, len(caps), allocs, len(caps))
	}
}
