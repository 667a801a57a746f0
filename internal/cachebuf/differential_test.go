package cachebuf

// Differential harness: seeded random event streams driven through the
// production Buffer and the naive reference model in lockstep. After
// every event the two must agree on the returned error, the assigned
// offset, the exact eviction victim sequence, the hit/miss outcome of
// lookups, per-id placement, and used bytes; the shared oracle asserts
// pin-safety on every eviction callback. The streams use whole-second
// evictability estimates and small integer distances so the production
// policy's incremental float sums are exact and must match the model's
// direct summation bit-for-bit.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"score/internal/simclock"
)

// diffOracle is shared by the production buffer and the model: one
// source of truth for evictability, pinning and prefetch distances.
type diffOracle struct {
	t         testing.TB
	pinned    map[ID]bool
	evictable map[ID]bool
	timeTo    map[ID]time.Duration
	distance  map[ID]int
	victims   []ID // production evictions since last reset
	// published, when the buffer reads entries the harness writes, copies
	// the tables into them; the harness calls sync after editing a table.
	published func()
}

// sync makes the tables' current contents what the buffer will read.
func (o *diffOracle) sync() {
	if o.published != nil {
		o.published()
	}
}

func newDiffOracle(t testing.TB) *diffOracle {
	return &diffOracle{
		t:         t,
		pinned:    map[ID]bool{},
		evictable: map[ID]bool{},
		timeTo:    map[ID]time.Duration{},
		distance:  map[ID]int{},
	}
}

func (o *diffOracle) Evictable(id ID) bool { return !o.pinned[id] && o.evictable[id] }

func (o *diffOracle) TimeToEvictable(id ID) (time.Duration, bool) {
	if o.pinned[id] {
		return 0, false
	}
	return o.timeTo[id], true
}

func (o *diffOracle) PrefetchDistance(id ID) int {
	if d, ok := o.distance[id]; ok {
		return d
	}
	return GapDistance - 1
}

func (o *diffOracle) Evicted(id ID) {
	if !o.Evictable(id) {
		o.t.Errorf("pin-safety violation: evicted id %d while pinned or not evictable", id)
	}
	o.victims = append(o.victims, id)
}

// diffEntries is the push feed: the shared tables written into entries the
// way the runtime writes them — when they change, not when a scan asks.
// Pinned ids keep their recorded estimate, which the buffer must ignore,
// and the queue head sits at a non-zero position the buffer must subtract.
type diffEntries struct {
	*diffOracle
	src     Source
	entries map[ID]*Entry
}

const diffHead = 7

func newDiffEntries(o *diffOracle) *diffEntries {
	d := &diffEntries{diffOracle: o, entries: map[ID]*Entry{}}
	d.src.Head.Store(diffHead)
	o.published = func() {
		for id, e := range d.entries {
			d.write(id, e)
		}
	}
	return d
}

func (d *diffEntries) write(id ID, e *Entry) {
	var flags Flags
	if d.pinned[id] {
		flags |= Pinned
	}
	if !d.Evictable(id) {
		flags |= Kept
	}
	e.SetFlags(flags)
	e.wait.Store(int64(d.timeTo[id]))
	e.SetHint(NoHint)
	if dist, ok := d.distance[id]; ok {
		e.SetHint(diffHead + dist)
	}
}

func (d *diffEntries) Entry(id ID) (*Entry, *Source) {
	e := d.entries[id]
	if e == nil {
		e = new(Entry)
		d.entries[id] = e
	}
	d.write(id, e)
	return e, &d.src
}

// fickleOracle gives the table's answer the first time a scan asks for an
// id's estimate or distance and a different one on every repeat: the live
// link estimate and lock-free life-cycle state of the real runtime, made
// adversarial. reset starts a new scan.
type fickleOracle struct {
	*diffOracle
	estimates, distances map[ID]int // asks since reset
}

func newFickleOracle(o *diffOracle) *fickleOracle {
	return &fickleOracle{diffOracle: o, estimates: map[ID]int{}, distances: map[ID]int{}}
}

func (o *fickleOracle) reset() { clear(o.estimates); clear(o.distances) }

func (o *fickleOracle) TimeToEvictable(id ID) (time.Duration, bool) {
	d, ok := o.diffOracle.TimeToEvictable(id)
	if o.estimates[id]++; o.estimates[id] > 1 {
		return d + 7*time.Second, !ok
	}
	return d, ok
}

func (o *fickleOracle) PrefetchDistance(id ID) int {
	o.distances[id]++
	return o.diffOracle.PrefetchDistance(id) + 1000*(o.distances[id]-1)
}

// oracleKinds are the two feeds a buffer can read the shared tables
// through: a four-method Oracle it polls, and entries written directly.
// Every differential stream runs through both.
var oracleKinds = []struct {
	name  string
	build func(clk simclock.Clock, name string, capacity int64, o *diffOracle) *Buffer
}{
	{"polled", polledBuffer},
	{"entries", func(clk simclock.Clock, name string, capacity int64, o *diffOracle) *Buffer {
		return NewFromEntries(clk, name, capacity, newDiffEntries(o))
	}},
}

func polledBuffer(clk simclock.Clock, name string, capacity int64, o *diffOracle) *Buffer {
	return New(clk, name, capacity, o)
}

// lockstep drives one production buffer and one model through the same
// event stream, checking full-state agreement after every event.
type lockstep struct {
	t        *testing.T
	pol      Policy
	capacity int64
	idSpace  int
	o        *diffOracle
	b        *Buffer
	m        *modelBuffer
	step     int
	hits     int
	misses   int
}

// newLockstep builds the pair; the production buffer sees the shared
// tables through the feed build wires, the model reads them directly.
func newLockstep(t *testing.T, clk *simclock.Virtual, pol Policy, capacity int64, idSpace int,
	build func(simclock.Clock, string, int64, *diffOracle) *Buffer) *lockstep {
	o := newDiffOracle(t)
	b := build(clk, "diff-"+pol.String(), capacity, o)
	if err := b.SetPolicy(pol); err != nil {
		t.Fatalf("SetPolicy(%v): %v", pol, err)
	}
	mp := newModelPolicy(pol)
	if mp == nil {
		t.Fatalf("no reference model for policy %v", pol)
	}
	return &lockstep{
		t: t, pol: pol, capacity: capacity, idSpace: idSpace,
		o: o, b: b, m: newModelBuffer(capacity, o, mp),
	}
}

func (ls *lockstep) fatalf(format string, args ...any) {
	ls.t.Helper()
	ls.t.Fatalf("policy %s, step %d: %s", ls.pol, ls.step, fmt.Sprintf(format, args...))
}

func (ls *lockstep) reserve(id ID, size int64) {
	ls.o.victims = nil
	ls.o.sync()
	off, err := ls.b.TryReserve(id, size)
	moff, merr := ls.m.tryReserve(id, size)
	if err != merr {
		ls.fatalf("TryReserve(%d, %d): buffer err %v, model err %v", id, size, err, merr)
	}
	if err == nil && off != moff {
		ls.fatalf("TryReserve(%d, %d): buffer offset %d, model offset %d", id, size, off, moff)
	}
	if len(ls.o.victims) != len(ls.m.victims) {
		ls.fatalf("TryReserve(%d, %d): buffer evicted %v, model evicted %v",
			id, size, ls.o.victims, ls.m.victims)
	}
	for i := range ls.o.victims {
		if ls.o.victims[i] != ls.m.victims[i] {
			ls.fatalf("TryReserve(%d, %d): victim sequence %v, model %v",
				id, size, ls.o.victims, ls.m.victims)
		}
	}
	ls.check()
}

func (ls *lockstep) release(id ID) {
	got := ls.b.Release(id)
	want := ls.m.release(id)
	if got != want {
		ls.fatalf("Release(%d) = %v, model %v", id, got, want)
	}
	ls.check()
}

func (ls *lockstep) touch(id ID) {
	ls.b.Touch(id)
	ls.m.touch(id)
	ls.check()
}

func (ls *lockstep) lookup(id ID) {
	_, _, got := ls.b.Contains(id)
	want := ls.m.resident(id)
	if got != want {
		ls.fatalf("Contains(%d) = %v, model resident %v", id, got, want)
	}
	if got {
		ls.hits++
	} else {
		ls.misses++
	}
	ls.check()
}

// check compares the complete observable state.
func (ls *lockstep) check() {
	ls.t.Helper()
	if err := ls.b.CheckInvariants(); err != nil {
		ls.fatalf("invariants: %v", err)
	}
	for id := ID(0); id < ID(ls.idSpace); id++ {
		off, size, ok := ls.b.Contains(id)
		mi := ls.m.indexOf(id)
		if ok != (mi >= 0) {
			ls.fatalf("residency of id %d: buffer %v, model %v", id, ok, mi >= 0)
		}
		if ok {
			if moff := ls.m.offsetOf(mi); off != moff || size != ls.m.frags[mi].size {
				ls.fatalf("placement of id %d: buffer [%d,+%d), model [%d,+%d)",
					id, off, size, moff, ls.m.frags[mi].size)
			}
		}
	}
	if got, want := ls.b.UsedBytes(), ls.m.usedBytes(); got != want {
		ls.fatalf("UsedBytes() = %d, model %d", got, want)
	}
	ls.step++
}

// randomEvent applies one event of the seeded differential stream.
func (ls *lockstep) randomEvent(rng *rand.Rand) {
	id := ID(rng.Intn(ls.idSpace))
	switch r := rng.Intn(100); {
	case r < 35:
		ls.reserve(id, int64(1+rng.Intn(300)))
	case r < 50:
		ls.release(id)
	case r < 62:
		ls.touch(id)
	case r < 74: // becomes evictable now
		ls.o.pinned[id] = false
		ls.o.evictable[id] = true
		ls.o.timeTo[id] = 0
	case r < 82: // evictable in a whole number of seconds
		ls.o.pinned[id] = false
		ls.o.evictable[id] = false
		ls.o.timeTo[id] = time.Duration(1+rng.Intn(4)) * time.Second
	case r < 88: // pin
		ls.o.pinned[id] = true
	case r < 94: // prefetch-order hint
		ls.o.distance[id] = rng.Intn(64)
	default:
		ls.lookup(id)
	}
}

const (
	diffCapacity = 1024
	diffIDSpace  = 12
	diffSteps    = 500
)

// TestDifferentialAllPolicies is the lockstep harness over seeded
// streams: every registered policy, both feeds, several seeds,
// hundreds of events each. It runs in the ordinary test suite and
// therefore also under -race via `make verify` / `make race` in CI.
func TestDifferentialAllPolicies(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		for _, kind := range oracleKinds {
			kind := kind
			for seed := int64(1); seed <= 5; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", pol, kind.name, seed), func(t *testing.T) {
					t.Parallel()
					runSim(t, func(clk *simclock.Virtual) {
						ls := newLockstep(t, clk, pol, diffCapacity, diffIDSpace, kind.build)
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < diffSteps; i++ {
							ls.randomEvent(rng)
						}
						if ls.b.Snapshot().Evictions == 0 {
							t.Error("stream produced no evictions; harness not exercising the policy")
						}
					})
				})
			}
		}
	}
}

// TestScanAsksEachFragmentOnce runs the differential stream against an
// oracle whose answers change on every repeated ask. A policy that adds
// one answer when a fragment enters its window and subtracts another when
// it leaves drifts away from the model, which scores each window from the
// first answers; the buffer's one snapshot per scan makes every policy
// agree with it, and polling asks about no fragment twice in one scan (an
// event performs at most one).
func TestScanAsksEachFragmentOnce(t *testing.T) {
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			runSim(t, func(clk *simclock.Virtual) {
				var fickle *fickleOracle
				ls := newLockstep(t, clk, pol, diffCapacity, diffIDSpace,
					func(clk simclock.Clock, name string, capacity int64, o *diffOracle) *Buffer {
						fickle = newFickleOracle(o)
						return New(clk, name, capacity, fickle)
					})
				rng := rand.New(rand.NewSource(1))
				var asked int
				for i := 0; i < diffSteps; i++ {
					fickle.reset()
					ls.randomEvent(rng)
					for id, n := range fickle.estimates {
						asked += n
						if n > 1 || fickle.distances[id] > 1 {
							ls.fatalf("one scan asked about id %d %d and %d times", id, n, fickle.distances[id])
						}
					}
				}
				st := ls.b.Snapshot()
				if st.Evictions == 0 || int64(asked) != st.FragmentsScored {
					t.Errorf("%d evictions; oracle saw %d asks, Stats.FragmentsScored = %d", st.Evictions, asked, st.FragmentsScored)
				}
			})
		})
	}
}
