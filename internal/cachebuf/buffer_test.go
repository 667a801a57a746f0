package cachebuf

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"score/internal/simclock"
)

// fakeOracle is a scriptable Oracle for unit tests.
type fakeOracle struct {
	evictable map[ID]bool
	timeTo    map[ID]time.Duration
	pinned    map[ID]bool
	distance  map[ID]int
	evictedCh []ID
}

func newFakeOracle() *fakeOracle {
	return &fakeOracle{
		evictable: map[ID]bool{},
		timeTo:    map[ID]time.Duration{},
		pinned:    map[ID]bool{},
		distance:  map[ID]int{},
	}
}

func (o *fakeOracle) Evictable(id ID) bool { return o.evictable[id] }
func (o *fakeOracle) TimeToEvictable(id ID) (time.Duration, bool) {
	if o.pinned[id] {
		return 0, false
	}
	return o.timeTo[id], true
}
func (o *fakeOracle) PrefetchDistance(id ID) int {
	if d, ok := o.distance[id]; ok {
		return d
	}
	return GapDistance - 1
}
func (o *fakeOracle) Evicted(id ID) { o.evictedCh = append(o.evictedCh, id) }

// mark makes id immediately evictable.
func (o *fakeOracle) mark(ids ...ID) {
	for _, id := range ids {
		o.evictable[id] = true
		o.timeTo[id] = 0
	}
}

func runSim(t *testing.T, fn func(clk *simclock.Virtual)) {
	t.Helper()
	clk := simclock.NewVirtual()
	clk.Run(func() { fn(clk) })
}

func TestReserveIntoEmptyBuffer(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 1000, o)
		off, err := b.Reserve(1, 400)
		if err != nil {
			t.Fatal(err)
		}
		if off != 0 {
			t.Errorf("offset = %d, want 0", off)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
		if got := b.FreeBytes(); got != 600 {
			t.Errorf("free = %d, want 600", got)
		}
	})
}

func TestReserveRejectsBadInputs(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		b := New(clk, "gpu", 1000, newFakeOracle())
		if _, err := b.Reserve(1, 2000); !errors.Is(err, ErrTooLarge) {
			t.Errorf("oversized reserve: err = %v, want ErrTooLarge", err)
		}
		if _, err := b.Reserve(1, 0); err == nil {
			t.Error("zero-size reserve should fail")
		}
		if _, err := b.Reserve(-3, 10); err == nil {
			t.Error("negative id should fail")
		}
		if _, err := b.Reserve(1, 100); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Reserve(1, 100); !errors.Is(err, ErrDuplicate) {
			t.Errorf("duplicate reserve: err = %v, want ErrDuplicate", err)
		}
	})
}

func TestUniformSizesNeverFragment(t *testing.T) {
	// §4.1.5: "When the checkpoint sizes are identical, the management
	// of the cache buffer is straightforward: each eviction creates a
	// gap that is large enough to accommodate a new checkpoint."
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 4*128, o)
		for i := ID(0); i < 64; i++ {
			o.mark(i) // everything already flushed: free to evict
			if _, err := b.Reserve(i, 128); err != nil {
				t.Fatalf("reserve %d: %v", i, err)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("after reserve %d: %v", i, err)
			}
		}
		if got := b.Resident(); got != 4 {
			t.Errorf("resident = %d, want 4", got)
		}
		// Fragment list stays small: 4 checkpoints, no gaps.
		if got := b.FragmentCount(); got != 4 {
			t.Errorf("fragments = %d, want 4", got)
		}
	})
}

func TestReleaseCreatesAndCoalescesGaps(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		for i := ID(0); i < 3; i++ {
			if _, err := b.Reserve(i, 100); err != nil {
				t.Fatal(err)
			}
		}
		if !b.Release(1) {
			t.Fatal("Release(1) = false")
		}
		if b.Release(1) {
			t.Error("double Release(1) should return false")
		}
		if got := b.LargestGap(); got != 100 {
			t.Errorf("largest gap = %d, want 100", got)
		}
		b.Release(0)
		// Gaps at [0,100) and [100,200) must coalesce.
		if got := b.LargestGap(); got != 200 {
			t.Errorf("after coalescing, largest gap = %d, want 200", got)
		}
		b.Release(2)
		if got := b.LargestGap(); got != 300 {
			t.Errorf("fully released, largest gap = %d, want 300", got)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

func TestEvictionPrefersSmallestPScore(t *testing.T) {
	// Three resident checkpoints; the new one needs one slot. The
	// checkpoint with the smallest time-to-evictable must be chosen.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		for i := ID(0); i < 3; i++ {
			if _, err := b.Reserve(i, 100); err != nil {
				t.Fatal(err)
			}
		}
		o.evictable[0], o.timeTo[0] = false, 5*time.Second
		o.evictable[1], o.timeTo[1] = false, 1*time.Second
		o.evictable[2], o.timeTo[2] = false, 3*time.Second

		// Simulate the flush of ckpt 1 finishing after 1s.
		clk.Go(func() {
			clk.Sleep(time.Second)
			o.mark(1)
			b.Notify()
		})
		start := clk.Now()
		off, err := b.Reserve(10, 100)
		if err != nil {
			t.Fatal(err)
		}
		if waited := clk.Now() - start; waited != time.Second {
			t.Errorf("waited %v for eviction, want 1s (the min p_score window)", waited)
		}
		if off != 100 {
			t.Errorf("new checkpoint at offset %d, want 100 (ckpt 1's slot)", off)
		}
		if _, _, ok := b.Contains(1); ok {
			t.Error("ckpt 1 should have been evicted")
		}
		for _, id := range []ID{0, 2} {
			if _, _, ok := b.Contains(id); !ok {
				t.Errorf("ckpt %d should still be resident", id)
			}
		}
	})
}

func TestEvictionTieBreaksOnPrefetchDistance(t *testing.T) {
	// All three candidates evictable now (p_score 0 each): the one
	// whose prefetch hint is farthest from the queue head must go.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		for i := ID(0); i < 3; i++ {
			if _, err := b.Reserve(i, 100); err != nil {
				t.Fatal(err)
			}
		}
		o.mark(0, 1, 2)
		o.distance[0] = 2 // restored soon
		o.distance[1] = 50
		o.distance[2] = 7
		off, err := b.Reserve(10, 100)
		if err != nil {
			t.Fatal(err)
		}
		if off != 100 {
			t.Errorf("offset = %d, want 100 (ckpt 1, farthest hint)", off)
		}
		if _, _, ok := b.Contains(1); ok {
			t.Error("ckpt 1 (farthest prefetch hint) should have been evicted")
		}
	})
}

func TestPinnedFragmentsNeverEvicted(t *testing.T) {
	// §2 condition 4: a prefetched-but-unconsumed checkpoint cannot be
	// evicted, even if everything else looks worse.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		for i := ID(0); i < 3; i++ {
			if _, err := b.Reserve(i, 100); err != nil {
				t.Fatal(err)
			}
		}
		o.pinned[1] = true
		o.evictable[0], o.timeTo[0] = false, 2*time.Second
		o.evictable[2], o.timeTo[2] = false, 2*time.Second
		clk.Go(func() {
			clk.Sleep(2 * time.Second)
			o.mark(0, 2)
			b.Notify()
		})
		if _, err := b.Reserve(10, 100); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := b.Contains(1); !ok {
			t.Error("pinned ckpt 1 must never be evicted")
		}
	})
}

func TestGapAwareWindowCombinesGapAndCheckpoint(t *testing.T) {
	// §4.1.5: "a small checkpoint may not be a good candidate for
	// eviction by itself but becomes so if it is surrounded by large
	// gaps". Layout: [ck0 40][gap 30][ck1 10][gap 30][ck2 190]. A
	// 60-byte request fits no single gap; the cheapest window is
	// gap+ck1+gap (70 bytes, p_score = ck1 only) rather than evicting
	// ck0 or ck2.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		layout := []struct {
			id   ID
			size int64
		}{{0, 40}, {3, 30}, {1, 10}, {4, 30}, {2, 190}}
		for _, f := range layout {
			if _, err := b.Reserve(f.id, f.size); err != nil {
				t.Fatal(err)
			}
		}
		b.Release(3) // becomes gap [40,70)
		b.Release(4) // becomes gap [80,110)

		o.evictable[0], o.timeTo[0] = false, 10*time.Second
		o.mark(1) // small checkpoint between the gaps: free
		o.evictable[2], o.timeTo[2] = false, 10*time.Second

		done := make(chan struct{})
		var off int64
		var err error
		clk.Go(func() {
			defer close(done)
			off, err = b.Reserve(10, 60)
		})
		// The reservation must complete without waiting 10s: the
		// gap+ck1+gap window is immediately evictable.
		clk.Sleep(time.Second)
		select {
		case <-done:
		default:
			t.Fatal("reservation still blocked; gap-aware window not used")
		}
		if err != nil {
			t.Fatal(err)
		}
		if off != 40 {
			t.Errorf("offset = %d, want 40 (start of the coalesced window)", off)
		}
		if _, _, ok := b.Contains(1); ok {
			t.Error("ckpt 1 should have been sacrificed with its surrounding gaps")
		}
		for _, id := range []ID{0, 2} {
			if _, _, ok := b.Contains(id); !ok {
				t.Errorf("ckpt %d should still be resident", id)
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

func TestResidualGapInsertedAfterEviction(t *testing.T) {
	// Algorithm 1 line 27-28: when the evicted window is larger than
	// the request, the residue becomes a gap.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		if _, err := b.Reserve(0, 300); err != nil {
			t.Fatal(err)
		}
		o.mark(0)
		off, err := b.Reserve(1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if off != 0 {
			t.Errorf("offset = %d, want 0", off)
		}
		if got := b.FreeBytes(); got != 200 {
			t.Errorf("free = %d, want 200 (residual gap)", got)
		}
		if got := b.LargestGap(); got != 200 {
			t.Errorf("largest gap = %d, want 200", got)
		}
	})
}

func TestTryReserveDoesNotBlock(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 200, o)
		if _, err := b.Reserve(0, 200); err != nil {
			t.Fatal(err)
		}
		o.evictable[0], o.timeTo[0] = false, time.Hour
		start := clk.Now()
		if _, err := b.TryReserve(1, 100); !errors.Is(err, ErrWouldBlock) {
			t.Errorf("TryReserve = %v, want ErrWouldBlock", err)
		}
		if clk.Now() != start {
			t.Error("TryReserve advanced simulated time")
		}
		o.mark(0)
		if _, err := b.TryReserve(1, 100); err != nil {
			t.Errorf("TryReserve after flush: %v", err)
		}
	})
}

func TestCloseUnblocksWaiters(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 100, o)
		if _, err := b.Reserve(0, 100); err != nil {
			t.Fatal(err)
		}
		o.pinned[0] = true
		errCh := make(chan error, 1)
		wg := simclock.NewWaitGroup(clk)
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			_, err := b.Reserve(1, 100)
			errCh <- err
		})
		clk.Sleep(time.Second)
		b.Close()
		wg.Wait()
		if err := <-errCh; !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Reserve after Close: err = %v, want ErrClosed", err)
		}
		if _, err := b.Reserve(2, 10); !errors.Is(err, ErrClosed) {
			t.Errorf("Reserve on closed buffer: err = %v, want ErrClosed", err)
		}
	})
}

func TestCloseDuringEvictionWaitReturnsPromptly(t *testing.T) {
	// Regression: a Reserve blocked waiting for a feasible-but-not-yet-
	// evictable window (finite TimeToEvictable) must return ErrClosed on
	// Close instead of spinning through rescan retries forever.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 100, o)
		if _, err := b.Reserve(0, 100); err != nil {
			t.Fatal(err)
		}
		// Feasible window (not pinned) that never becomes evictable.
		o.evictable[0], o.timeTo[0] = false, time.Hour
		errCh := make(chan error, 1)
		wg := simclock.NewWaitGroup(clk)
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			_, err := b.Reserve(1, 100)
			errCh <- err
		})
		clk.Sleep(time.Second)
		b.Close()
		wg.Wait()
		if err := <-errCh; !errors.Is(err, ErrClosed) {
			t.Errorf("Reserve after Close = %v, want ErrClosed", err)
		}
	})
}

func TestOracleEvictedCallback(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 100, o)
		if _, err := b.Reserve(7, 100); err != nil {
			t.Fatal(err)
		}
		o.mark(7)
		if _, err := b.Reserve(8, 100); err != nil {
			t.Fatal(err)
		}
		if len(o.evictedCh) != 1 || o.evictedCh[0] != 7 {
			t.Errorf("evicted callbacks = %v, want [7]", o.evictedCh)
		}
	})
}

func TestBestFitGapSelection(t *testing.T) {
	// The fast path should choose the tightest fitting gap, preserving
	// large gaps for large checkpoints.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 1000, o)
		// Layout: ck0 [0,100) ck1 [100,400) ck2 [400,450) ck3 [450,1000)
		for _, f := range []struct {
			id   ID
			size int64
		}{{0, 100}, {1, 300}, {2, 50}, {3, 550}} {
			if _, err := b.Reserve(f.id, f.size); err != nil {
				t.Fatal(err)
			}
		}
		b.Release(1) // gap of 300 at 100
		b.Release(2) // gap of 50 at 400  (not adjacent: ck at 0? no—)

		// Wait: releasing 1 and 2 leaves [100,400) and [400,450)
		// adjacent → they coalesce to one 350 gap. Rebuild scenario:
		// release only 1 and 3 instead for two separate gaps.
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 1000, o)
		for _, f := range []struct {
			id   ID
			size int64
		}{{0, 100}, {1, 300}, {2, 50}, {3, 550}} {
			if _, err := b.Reserve(f.id, f.size); err != nil {
				t.Fatal(err)
			}
		}
		b.Release(1) // gap [100,400), size 300
		b.Release(3) // gap [450,1000), size 550
		off, err := b.Reserve(9, 250)
		if err != nil {
			t.Fatal(err)
		}
		if off != 100 {
			t.Errorf("offset = %d, want 100 (best-fit into the 300 gap)", off)
		}
	})
}

// A buffer held by one pinned fragment makes every blocking reservation
// wait until the fragment is unpinned. With two waiters, a waiter's failed
// scan must not wake the other: that woke each other forever at t=0. Each
// waiter scans once before it waits; after the unpin the first scans once
// more and evicts, the second fits the gap left over without a scan.
func TestReserveWaitsWhenAllPinnedThenProceeds(t *testing.T) {
	for _, tc := range []struct {
		name      string
		wantOffs  []int64 // one per waiter
		wantScans int64
	}{
		{"one waiter", []int64{0}, 2},
		{"two waiters", []int64{0, 500}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runSim(t, func(clk *simclock.Virtual) {
				o := newFakeOracle()
				b := New(clk, "gpu", 1000, o)
				if _, err := b.Reserve(0, 1000); err != nil {
					t.Fatal(err)
				}
				o.pinned[0] = true
				clk.Go(func() {
					clk.Sleep(4 * time.Second) // consumption happens later
					o.pinned[0] = false
					o.mark(0)
					b.Notify()
				})
				wg := simclock.NewWaitGroup(clk)
				var offs []int64
				for w := 1; w <= len(tc.wantOffs); w++ {
					wg.Add(1)
					clk.Go(func() {
						defer wg.Done()
						off, err := b.Reserve(ID(w), 500)
						if err != nil {
							t.Error(err)
							return
						}
						offs = append(offs, off)
						if now := clk.Now(); now != 4*time.Second {
							t.Errorf("waiter %d returned at %v, want 4s (until unpin)", w, now)
						}
					})
				}
				wg.Wait()
				if slices.Sort(offs); !slices.Equal(offs, tc.wantOffs) {
					t.Errorf("offsets %v, want %v", offs, tc.wantOffs)
				}
				if got := b.Snapshot().WindowScans; got != tc.wantScans {
					t.Errorf("%d window scans, want %d", got, tc.wantScans)
				}
				if err := b.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

// A parked reservation wakes only for a change that can make its scan
// feasible. A TryReserve that finds its window not yet evictable, and a
// claim, can only make it less feasible: neither may wake it to rescan.
func TestFailedTriesAndClaimsWakeNobody(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 1000, o)
		for id := ID(0); id < 2; id++ {
			if _, err := b.Reserve(id, 500); err != nil {
				t.Fatal(err)
			}
		}
		o.timeTo[0] = time.Second // unpinned, not yet evictable
		o.pinned[1] = true
		wg := simclock.NewWaitGroup(clk)
		waiter := func(id ID, size int64) {
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				if _, err := b.Reserve(id, size); !errors.Is(err, ErrClosed) {
					t.Errorf("Reserve(%d) = %v, want ErrClosed", id, err)
				}
			})
		}
		waiter(2, 1000) // scan 1: crosses the pinned fragment, parks
		clk.Sleep(time.Second)
		if _, err := b.TryReserve(3, 500); !errors.Is(err, ErrWouldBlock) { // scan 2
			t.Fatalf("TryReserve = %v, want ErrWouldBlock", err)
		}
		waiter(4, 500) // scan 3: claims fragment 0, waits for it
		clk.Sleep(time.Second)
		if got := b.Snapshot().WindowScans; got != 3 {
			t.Errorf("%d window scans, want 3: the parked reservation rescanned", got)
		}
		b.Close()
		wg.Wait()
		if err := b.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// Two reservations' claimed windows that meet keep their seam when the
// checkpoints on both sides of it are released: each waiter must find its
// window where it claimed it, and the buffer, full after both land, must
// not place a third reservation on their bytes.
func TestAdjacentClaimsKeepTheirSeam(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "host", 400, o)
		for id := ID(1); id <= 4; id++ {
			if _, err := b.Reserve(id, 100); err != nil {
				t.Fatal(err)
			}
			o.timeTo[id] = time.Duration(1+(id-1)/2) * time.Second // [1,2] scores lower than [3,4]
		}
		wg := simclock.NewWaitGroup(clk)
		offs := map[ID]int64{}
		for _, id := range []ID{10, 11} { // 10 claims [1,2], then 11 claims [3,4]
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				off, err := b.Reserve(id, 200)
				if err != nil {
					t.Error(err)
				}
				offs[id] = off
			})
			clk.Sleep(time.Millisecond)
		}
		b.Release(3)
		b.Release(2) // its gap meets 3's across the two claims' seam
		o.mark(1, 4)
		b.Notify()
		wg.Wait()
		if offs[10] != 0 || offs[11] != 200 {
			t.Errorf("reservations landed at %v, want 10 at 0 and 11 at 200", offs)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if off, err := b.TryReserve(12, 100); !errors.Is(err, ErrWouldBlock) {
			t.Errorf("TryReserve in a full buffer = %d, %v, want ErrWouldBlock", off, err)
		}
	})
}

// Closing a buffer unclaims each parked reservation's window as its waiter
// gives up, and the pass that re-merges the freed gaps must leave the
// claims still parked alone: two claimed gaps that meet at the seam of
// two later windows are not one gap, or the later waiter finds its window
// gone.
func TestCloseUnclaimsOneWindowAtATime(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "host", 600, o)
		for id := ID(1); id <= 6; id++ {
			if _, err := b.Reserve(id, 100); err != nil {
				t.Fatal(err)
			}
			o.timeTo[id] = time.Duration(1+(id-1)/2) * time.Second // [1,2] < [3,4] < [5,6]
		}
		wg := simclock.NewWaitGroup(clk)
		errs := map[ID]error{}
		for _, id := range []ID{10, 11, 12} { // claim [1,2], [3,4], [5,6] in turn
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				_, errs[id] = b.Reserve(id, 200)
			})
			clk.Sleep(time.Millisecond)
		}
		b.Release(4)
		b.Release(5) // two claimed gaps meet across the seam of 11's and 12's windows
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		b.Close()
		wg.Wait()
		for _, id := range []ID{10, 11, 12} {
			if !errors.Is(errs[id], ErrClosed) {
				t.Errorf("reservation %d = %v, want ErrClosed", id, errs[id])
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := b.FragmentCount(); got != 5 {
			t.Errorf("%d fragments after close, want 5: four residents and the one gap 4 and 5 left", got)
		}
	})
}

func TestRandomOpsPreserveInvariantsProperty(t *testing.T) {
	// Property: any interleaving of reserves (random sizes) and
	// releases keeps the fragment geometry valid.
	f := func(seed int64) bool {
		ok := true
		clk := simclock.NewVirtual()
		clk.Run(func() {
			rng := rand.New(rand.NewSource(seed))
			o := newFakeOracle()
			b := New(clk, "gpu", 1<<20, o)
			live := []ID{}
			next := ID(0)
			for op := 0; op < 300; op++ {
				if rng.Intn(3) > 0 || len(live) == 0 {
					id := next
					next++
					size := int64(rng.Intn(1<<16) + 1)
					o.mark(id) // evictable immediately: no blocking
					_, err := b.Reserve(id, size)
					if err != nil {
						ok = false
						return
					}
					if _, _, res := b.Contains(id); res {
						live = append(live, id)
					}
				} else {
					i := rng.Intn(len(live))
					id := live[i]
					// The id may have been evicted by a reserve.
					b.Release(id)
					live = append(live[:i], live[i+1:]...)
				}
				// Prune live ids that got evicted.
				kept := live[:0]
				for _, id := range live {
					if _, _, res := b.Contains(id); res {
						kept = append(kept, id)
					}
				}
				live = kept
				if err := b.CheckInvariants(); err != nil {
					t.Logf("seed %d op %d: %v", seed, op, err)
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 100, o)
		if _, err := b.Reserve(0, 100); err != nil {
			t.Fatal(err)
		}
		o.mark(0)
		if _, err := b.Reserve(1, 50); err != nil {
			t.Fatal(err)
		}
		s := b.Snapshot()
		if s.Reservations != 2 {
			t.Errorf("reservations = %d, want 2", s.Reservations)
		}
		if s.Evictions != 1 {
			t.Errorf("evictions = %d, want 1", s.Evictions)
		}
		if s.BytesEvicted != 100 {
			t.Errorf("bytes evicted = %d, want 100", s.BytesEvicted)
		}
	})
}

// tableEntries is an EntrySource over entries the test writes by hand; ids
// beyond the table have no record.
type tableEntries struct {
	src     Source
	entries []Entry
	evicted []ID
}

func (s *tableEntries) Entry(id ID) (*Entry, *Source) {
	if int(id) >= len(s.entries) {
		return nil, nil
	}
	return &s.entries[id], &s.src
}

func (s *tableEntries) Evicted(id ID) { s.evicted = append(s.evicted, id) }

// TestEntriesAreReadInPlace: a buffer built from entries asks for each once,
// at placement, and every later scan reads what the writer last stored —
// the state flags, the hint position against the source's queue head, the
// source's estimate at the instant of the scan — with no call back. A
// fragment the source has no record of is stale: free to reclaim.
func TestEntriesAreReadInPlace(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		var estimated []int64
		src := &tableEntries{entries: make([]Entry, 4)}
		src.src.Estimate = func(size int64) time.Duration {
			estimated = append(estimated, size)
			return time.Duration(size) * time.Second
		}
		src.src.Head = 40
		b := NewFromEntries(clk, "gpu", 400, src)
		src.entries[0].SetFlags(Kept | Estimate) // waiting on a flush: estimated
		src.entries[1].SetFlags(Pinned | Kept)   // pinned
		src.entries[2].SetFlags(0)               // evictable, hinted near
		src.entries[2].SetHint(41)
		src.entries[3].SetFlags(0) // evictable, hinted far
		src.entries[3].SetHint(45)
		for id, size := range []int64{60, 40, 150, 150} {
			if _, err := b.Reserve(ID(id), size); err != nil {
				t.Fatal(err)
			}
		}
		evict := func(id ID, size int64, want ...ID) {
			t.Helper()
			src.evicted = nil
			if _, err := b.TryReserve(id, size); err != nil {
				t.Fatalf("TryReserve(%d, %d): %v", id, size, err)
			}
			if fmt.Sprint(src.evicted) != fmt.Sprint(want) {
				t.Errorf("TryReserve(%d, %d) evicted %v, want %v", id, size, src.evicted, want)
			}
		}
		// Both evictable windows score p = 0; the farther hint (45-40 > 41-40)
		// breaks the tie. Id 9 has no record.
		evict(9, 150, 3)
		if fmt.Sprint(estimated) != "[60]" {
			t.Errorf("the scan estimated sizes %v, want the one flagged fragment's [60]", estimated)
		}
		// The queue head advances, no entry rewritten: id 2's hint is now
		// the head, and the recordless fragment farther than any hint.
		src.src.Head = 41
		evict(10, 150, 9)
		// Written in place, read at the next scan: a pin lands on id 2 and
		// every window large enough crosses it or id 1; then it lifts.
		src.entries[2].SetFlags(Pinned | Kept)
		if _, err := b.TryReserve(11, 200); err != ErrWouldBlock {
			t.Fatalf("every 200-byte window crosses a pinned fragment: err = %v, want ErrWouldBlock", err)
		}
		src.entries[2].SetFlags(0)
		evict(11, 200, 2, 10)
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEvictingReserveAllocatesNothing: in steady state — every reservation
// evicts one checkpoint to make its room — a scored Reserve is free of
// allocations: the scan reuses its snapshot and reads entries that exist.
func TestEvictingReserveAllocatesNothing(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		const slots, size = 8, 100
		src := &steadyEntries{}
		b := NewFromEntries(clk, "steady", slots*size, src)
		next := ID(0)
		reserve := func() {
			if _, err := b.Reserve(next, size); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for next < slots {
			reserve()
		}
		if n := testing.AllocsPerRun(200, reserve); n != 0 {
			t.Errorf("an evicting Reserve allocates %v times, want 0", n)
		}
		if st := b.Snapshot(); st.Evictions < 200 || st.Evictions != int64(src.evicted) {
			t.Errorf("%d evictions, %d notices; every measured Reserve must evict", st.Evictions, src.evicted)
		}
	})
}

// steadyEntries hands out one always-evictable entry per cache slot.
type steadyEntries struct {
	src     Source
	entries [8]Entry
	evicted int
}

func (s *steadyEntries) Entry(id ID) (*Entry, *Source) { return &s.entries[id%8], &s.src }
func (s *steadyEntries) Evicted(ID)                    { s.evicted++ }
