package cachebuf

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"score/internal/simclock"
)

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		PolicyScore: "score", PolicyLRU: "lru", PolicyFIFO: "fifo", PolicyARC: "arc",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), name)
		}
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("out-of-range policy should format numerically")
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
		ep, err := p.NewPolicy()
		if err != nil {
			t.Fatalf("NewPolicy(%v): %v", p, err)
		}
		if ep.Name() != p.String() {
			t.Errorf("policy %v names itself %q", p, ep.Name())
		}
	}
	// Never registered, or registered once and deleted: both fail with
	// the registered-names list.
	for _, name := range []string{"mru", "lru-k", "2q", "clock-pro"} {
		_, err := ParsePolicy(name)
		if err == nil || !strings.Contains(err.Error(), "(registered: "+policyList()+")") {
			t.Errorf("ParsePolicy(%q) error = %v, want the registered-names error", name, err)
		}
	}
}

// Regression: unknown Policy values used to fall through silently to the
// score policy; they must now be a constructor error everywhere.
func TestUnknownPolicyIsError(t *testing.T) {
	bogus := Policy(99)
	if bogus.Known() {
		t.Fatal("Policy(99) should not be known")
	}
	if _, err := bogus.NewPolicy(); err == nil {
		t.Error("NewPolicy on unknown policy should fail")
	}
	runSim(t, func(clk *simclock.Virtual) {
		b := New(clk, "gpu", 100, newFakeOracle())
		if err := b.SetPolicy(bogus); err == nil {
			t.Error("SetPolicy(Policy(99)) should fail")
		}
		if b.PolicyName() != "score" {
			t.Errorf("failed SetPolicy changed the active policy to %q", b.PolicyName())
		}
	})
}

func TestLRUPolicyEvictsLeastRecentlyTouched(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		b.SetPolicy(PolicyLRU)
		for i := ID(0); i < 3; i++ {
			o.mark(i)
			if _, err := b.Reserve(i, 100); err != nil {
				t.Fatal(err)
			}
		}
		// Touch 0 and 1: checkpoint 2 becomes the coldest despite being
		// the most recently inserted.
		b.Touch(0)
		b.Touch(1)
		if _, err := b.Reserve(10, 100); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := b.Contains(2); ok {
			t.Error("LRU should have evicted untouched checkpoint 2")
		}
		for _, id := range []ID{0, 1} {
			if _, _, ok := b.Contains(id); !ok {
				t.Errorf("touched checkpoint %d evicted", id)
			}
		}
	})
}

func TestFIFOPolicyEvictsOldestInsertion(t *testing.T) {
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 300, o)
		b.SetPolicy(PolicyFIFO)
		for i := ID(0); i < 3; i++ {
			o.mark(i)
			if _, err := b.Reserve(i, 100); err != nil {
				t.Fatal(err)
			}
		}
		// Touching must NOT matter for FIFO.
		b.Touch(0)
		b.Touch(0)
		if _, err := b.Reserve(10, 100); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := b.Contains(0); ok {
			t.Error("FIFO should have evicted the first-inserted checkpoint 0")
		}
	})
}

func TestRecencyPoliciesHonorPinning(t *testing.T) {
	for _, pol := range []Policy{PolicyLRU, PolicyFIFO, PolicyARC} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			runSim(t, func(clk *simclock.Virtual) {
				o := newFakeOracle()
				b := New(clk, "gpu", 200, o)
				b.SetPolicy(pol)
				o.mark(0, 1)
				if _, err := b.Reserve(0, 100); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Reserve(1, 100); err != nil {
					t.Fatal(err)
				}
				// Pin the would-be victim (oldest/coldest = 0).
				o.pinned[0] = true
				if _, err := b.Reserve(10, 100); err != nil {
					t.Fatal(err)
				}
				if _, _, ok := b.Contains(0); !ok {
					t.Error("pinned checkpoint evicted by recency policy")
				}
				if _, _, ok := b.Contains(1); ok {
					t.Error("unpinned checkpoint survived instead")
				}
			})
		})
	}
}

func TestRecencyPolicyWaitsForEvictability(t *testing.T) {
	// Recency policies pick windows by recency but still wait for the
	// life cycle to allow the eviction.
	runSim(t, func(clk *simclock.Virtual) {
		o := newFakeOracle()
		b := New(clk, "gpu", 100, o)
		b.SetPolicy(PolicyLRU)
		if _, err := b.Reserve(0, 100); err != nil {
			t.Fatal(err)
		}
		o.evictable[0], o.timeTo[0] = false, time.Second
		clk.Go(func() {
			clk.Sleep(time.Second)
			o.mark(0)
			b.Notify()
		})
		start := clk.Now()
		if _, err := b.Reserve(1, 100); err != nil {
			t.Fatal(err)
		}
		if waited := clk.Now() - start; waited != time.Second {
			t.Errorf("waited %v, want 1s", waited)
		}
	})
}

// TestARCKeepsRereadCheckpointThroughScan streams three once-seen
// checkpoints past one that was read after insertion. ARC holds the reread
// checkpoint in T2 while the scan cycles through T1; LRU ages it out once
// the scan outlives its last touch.
func TestARCKeepsRereadCheckpointThroughScan(t *testing.T) {
	for _, tc := range []struct {
		pol     Policy
		victims []ID
	}{
		{PolicyARC, []ID{1, 2, 10}},
		{PolicyLRU, []ID{1, 2, 0}},
	} {
		tc := tc
		t.Run(tc.pol.String(), func(t *testing.T) {
			runSim(t, func(clk *simclock.Virtual) {
				o := newFakeOracle()
				b := New(clk, "gpu", 300, o)
				if err := b.SetPolicy(tc.pol); err != nil {
					t.Fatal(err)
				}
				for _, id := range []ID{0, 1, 2} {
					o.mark(id)
					if _, err := b.Reserve(id, 100); err != nil {
						t.Fatal(err)
					}
				}
				b.Touch(0)
				for _, id := range []ID{10, 11, 12} {
					o.mark(id)
					if _, err := b.Reserve(id, 100); err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Equal(o.evictedCh, tc.victims) {
					t.Errorf("victims %v, want %v", o.evictedCh, tc.victims)
				}
			})
		})
	}
}

// arcLists names the lists id sits in, "+"-joined ("" when untracked), so
// an id listed twice shows up as a failure rather than a lucky lookup.
func arcLists(p *arcPolicy, id ID) string {
	var in []string
	if _, ok := p.t1[id]; ok {
		in = append(in, "t1")
	}
	if _, ok := p.t2[id]; ok {
		in = append(in, "t2")
	}
	if p.b1.has(id) {
		in = append(in, "b1")
	}
	if p.b2.has(id) {
		in = append(in, "b2")
	}
	return strings.Join(in, "+")
}

// TestARCPolicyLists drives the ARC callbacks directly and checks where
// each id ends up and how ghost hits move the T1 target p.
func TestARCPolicyLists(t *testing.T) {
	// ghostT2 leaves ids as B2 ghosts; ghostT1 leaves them as B1 ghosts.
	ghostT2 := func(p *arcPolicy, ids ...ID) {
		for _, id := range ids {
			p.OnInsert(id, 10)
			p.OnTouch(id)
			p.OnEvict(id)
		}
	}
	ghostT1 := func(p *arcPolicy, ids ...ID) {
		for _, id := range ids {
			p.OnInsert(id, 10)
			p.OnEvict(id)
		}
	}
	for _, tc := range []struct {
		name  string
		run   func(p *arcPolicy)
		lists map[ID]string
		p     int
	}{
		{"insert-lands-in-t1", func(p *arcPolicy) { p.OnInsert(1, 10) }, map[ID]string{1: "t1"}, 0},
		{"touch-promotes-to-t2", func(p *arcPolicy) {
			p.OnInsert(1, 10)
			p.OnTouch(1)
		}, map[ID]string{1: "t2"}, 0},
		{"t1-eviction-ghosts-to-b1", func(p *arcPolicy) { ghostT1(p, 1) }, map[ID]string{1: "b1"}, 0},
		{"t2-eviction-ghosts-to-b2", func(p *arcPolicy) { ghostT2(p, 1) }, map[ID]string{1: "b2"}, 0},
		{"b1-hit-grows-target-by-ghost-ratio", func(p *arcPolicy) {
			ghostT2(p, 10, 11, 12)
			for _, id := range []ID{20, 21, 22} {
				p.OnInsert(id, 10)
			}
			ghostT1(p, 1)
			p.OnInsert(1, 10) // p += |B2|/|B1| = 3, under the cap 3+1
		}, map[ID]string{1: "t2", 10: "b2", 20: "t1"}, 3},
		{"b2-hit-shrinks-target-by-ghost-ratio", func(p *arcPolicy) {
			p.p = 5
			ghostT2(p, 1)
			ghostT1(p, 2, 3)
			p.OnInsert(1, 10) // p -= |B1|/|B2| = 2
		}, map[ID]string{1: "t2", 2: "b1"}, 3},
		{"ghost-hit-adapts-by-at-least-one", func(p *arcPolicy) {
			ghostT1(p, 1, 2, 3)
			p.OnInsert(20, 10)
			p.OnInsert(1, 10) // |B2|/|B1| = 0 rounds up to 1
		}, map[ID]string{1: "t2", 2: "b1", 20: "t1"}, 1},
		{"target-capped-at-residents-plus-one", func(p *arcPolicy) {
			ghostT2(p, 10, 11, 12, 13, 14)
			ghostT1(p, 1)
			p.OnInsert(1, 10) // +5, but nothing else is resident
		}, map[ID]string{1: "t2"}, 1},
		{"target-floored-at-zero", func(p *arcPolicy) {
			p.p = 1
			ghostT2(p, 1)
			ghostT1(p, 2, 3, 4)
			p.OnInsert(1, 10) // -3
		}, map[ID]string{1: "t2"}, 0},
		{"release-leaves-no-ghost", func(p *arcPolicy) {
			p.OnInsert(1, 10)
			p.OnRelease(1)
			p.OnInsert(2, 10)
			p.OnTouch(2)
			p.OnRelease(2)
			p.OnInsert(1, 10) // a fresh insert, not a ghost hit
		}, map[ID]string{1: "t1", 2: ""}, 0},
		{"untracked-ids-are-ignored", func(p *arcPolicy) {
			p.OnTouch(9)
			p.OnEvict(9)
			p.OnRelease(9)
		}, map[ID]string{9: ""}, 0},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := newARCPolicy()
			tc.run(p)
			for id, want := range tc.lists {
				if got := arcLists(p, id); got != want {
					t.Errorf("id %d in %q, want %q", id, got, want)
				}
			}
			if p.p != tc.p {
				t.Errorf("target p = %d, want %d", p.p, tc.p)
			}
		})
	}
}

// TestARCPolicySelectWindow checks which list ARC sacrifices first, over
// views of equal-sized checkpoints where any one is a feasible window.
// In the two list-preference cases plain LRU would pick the other victim.
func TestARCPolicySelectWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(p *arcPolicy)
		view   []ID
		victim ID
	}{
		{"over-target-prefers-t1-to-older-t2", func(p *arcPolicy) {
			p.OnInsert(1, 10)
			p.OnTouch(1)
			p.OnInsert(2, 10)
		}, []ID{1, 2}, 2},
		{"within-target-prefers-t2-to-older-t1", func(p *arcPolicy) {
			p.OnInsert(2, 10)
			p.OnInsert(1, 10)
			p.OnTouch(1)
			p.p = 1
		}, []ID{2, 1}, 1},
		{"t1-in-insertion-order", func(p *arcPolicy) {
			p.OnInsert(1, 10)
			p.OnInsert(2, 10)
			p.OnInsert(3, 10)
		}, []ID{3, 1, 2}, 1},
		{"t2-in-last-touch-order", func(p *arcPolicy) {
			p.OnInsert(1, 10)
			p.OnInsert(2, 10)
			p.OnTouch(2)
			p.OnTouch(1)
		}, []ID{1, 2}, 2},
		{"untracked-id-first", func(p *arcPolicy) { p.OnInsert(1, 10) }, []ID{1, 99}, 99},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := newARCPolicy()
			tc.run(p)
			frags := make([]viewFrag, len(tc.view))
			for i, id := range tc.view {
				frags[i] = viewFrag{id: id, size: 10}
			}
			v := WindowView{frags}
			start, end, ok := p.SelectWindow(v, 10)
			if !ok || end != start+1 {
				t.Fatalf("SelectWindow = [%d,%d) feasible=%v, want one checkpoint", start, end, ok)
			}
			if id, _ := v.Frag(start); id != tc.victim {
				t.Errorf("victim %d, want %d", id, tc.victim)
			}
		})
	}
}

// TestGhostList checks the bounded FIFO set behind ARC's B1 and B2.
func TestGhostList(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, g *ghostList)
	}{
		{"add-is-idempotent", func(t *testing.T, g *ghostList) {
			g.add(1)
			g.add(1)
			if g.len() != 1 || !g.has(1) {
				t.Errorf("after adding 1 twice: len %d, has(1) %v", g.len(), g.has(1))
			}
		}},
		{"remove-of-absent-is-noop", func(t *testing.T, g *ghostList) {
			g.add(1)
			g.remove(2)
			if g.len() != 1 || !g.has(1) {
				t.Errorf("after removing absent 2: len %d, has(1) %v", g.len(), g.has(1))
			}
		}},
		{"remove-keeps-order", func(t *testing.T, g *ghostList) {
			g.add(1)
			g.add(2)
			g.add(3)
			g.remove(2)
			if !slices.Equal(g.order, []ID{1, 3}) || g.has(2) {
				t.Errorf("order %v, has(2) %v; want [1 3], false", g.order, g.has(2))
			}
		}},
		{"forgets-oldest-past-limit", func(t *testing.T, g *ghostList) {
			for id := ID(0); id <= ghostLimit; id++ {
				g.add(id)
			}
			if g.len() != ghostLimit || g.has(0) || !g.has(1) || !g.has(ghostLimit) {
				t.Fatalf("len %d, has(0) %v, has(1) %v; want %d, false, true", g.len(), g.has(0), g.has(1), ghostLimit)
			}
			g.add(0) // forgotten, so new again: evicts the next oldest
			if g.len() != ghostLimit || !g.has(0) || g.has(1) {
				t.Errorf("re-adding 0: len %d, has(0) %v, has(1) %v", g.len(), g.has(0), g.has(1))
			}
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newGhostList()) })
	}
}

// TestColdestWindow covers the scan LRU, FIFO and ARC share: the minimal
// window per start whose hottest member is coldest, first start on ties,
// gaps colder than anything, pinned fragments excluded.
func TestColdestWindow(t *testing.T) {
	ck := func(id ID, size int64) viewFrag { return viewFrag{id: id, size: size} }
	gap := func(size int64) viewFrag { return viewFrag{id: gapID, size: size} }
	pin := func(id ID, size int64) viewFrag { return viewFrag{id: id, size: size, pinned: true} }
	for _, tc := range []struct {
		name       string
		frags      []viewFrag
		heat       map[ID]int64
		size       int64
		start, end int
		ok         bool
	}{
		{"coldest-checkpoint-wins", []viewFrag{ck(1, 10), ck(2, 10), ck(3, 10)},
			map[ID]int64{1: 5, 2: 1, 3: 3}, 10, 1, 2, true},
		{"window-ranks-by-hottest-member", []viewFrag{ck(1, 10), ck(2, 10), ck(3, 10), ck(4, 10)},
			map[ID]int64{1: 1, 2: 9, 3: 2, 4: 3}, 20, 2, 4, true},
		{"first-start-wins-ties", []viewFrag{ck(1, 10), ck(2, 10), ck(3, 10)},
			map[ID]int64{1: 1, 2: 9, 3: 2}, 20, 0, 2, true},
		{"gap-only-window-coldest", []viewFrag{ck(1, 10), gap(10), ck(2, 10)},
			map[ID]int64{1: 1, 2: 2}, 10, 1, 2, true},
		{"gap-colder-than-untracked-id", []viewFrag{ck(99, 10), gap(10)},
			nil, 10, 1, 2, true},
		{"untracked-id-colder-than-tracked", []viewFrag{ck(1, 10), ck(99, 10)},
			map[ID]int64{1: 1}, 10, 1, 2, true},
		{"gap-extends-checkpoint-window", []viewFrag{ck(1, 10), gap(5), ck(2, 10)},
			map[ID]int64{1: 1, 2: 9}, 15, 0, 2, true},
		{"pinned-fragment-excludes-window", []viewFrag{pin(1, 10), ck(2, 10), ck(3, 10)},
			map[ID]int64{1: 0, 2: 5, 3: 6}, 20, 1, 3, true},
		{"infeasible-when-every-window-crosses-pin", []viewFrag{ck(1, 10), pin(2, 10), ck(3, 10)},
			map[ID]int64{1: 1, 3: 3}, 20, 0, 0, false},
		{"infeasible-when-capacity-short", []viewFrag{ck(1, 10), ck(2, 10)},
			map[ID]int64{1: 1, 2: 2}, 30, 0, 0, false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			start, end, ok := coldestWindow(WindowView{tc.frags}, tc.size, func(id ID) int64 {
				if h, ok := tc.heat[id]; ok {
					return h
				}
				return coldestUnknown
			})
			if start != tc.start || end != tc.end || ok != tc.ok {
				t.Errorf("coldestWindow = [%d,%d) %v, want [%d,%d) %v", start, end, ok, tc.start, tc.end, tc.ok)
			}
		})
	}
}

// fixedWindow is an EvictionPolicy that proposes one scripted window.
type fixedWindow struct {
	start, end int
	feasible   bool
}

func (fixedWindow) Name() string       { return "fixed" }
func (fixedWindow) OnInsert(ID, int64) {}
func (fixedWindow) OnTouch(ID)         {}
func (fixedWindow) OnEvict(ID)         {}
func (fixedWindow) OnRelease(ID)       {}
func (w fixedWindow) SelectWindow(WindowView, int64) (int, int, bool) {
	return w.start, w.end, w.feasible
}

// TestBufferRejectsMalformedPolicyWindows holds the buffer to its side of
// the pinning contract: a window that is out of range, empty, too small or
// crosses a pinned fragment is treated as infeasible, whatever the policy
// claims, and evicts nothing.
func TestBufferRejectsMalformedPolicyWindows(t *testing.T) {
	for _, tc := range []struct {
		name    string
		w       fixedWindow
		size    int64
		err     error
		victims []ID
	}{
		{"infeasible", fixedWindow{0, 1, false}, 100, ErrWouldBlock, nil},
		{"negative-start", fixedWindow{-1, 1, true}, 100, ErrWouldBlock, nil},
		{"end-past-last", fixedWindow{2, 4, true}, 100, ErrWouldBlock, nil},
		{"empty", fixedWindow{1, 1, true}, 100, ErrWouldBlock, nil},
		{"too-small", fixedWindow{0, 1, true}, 200, ErrWouldBlock, nil},
		{"crosses-pinned", fixedWindow{0, 2, true}, 200, ErrWouldBlock, nil},
		{"well-formed", fixedWindow{2, 3, true}, 100, nil, []ID{2}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runSim(t, func(clk *simclock.Virtual) {
				o := newFakeOracle()
				b := New(clk, "gpu", 300, o)
				for _, id := range []ID{0, 1, 2} {
					o.mark(id)
					if _, err := b.Reserve(id, 100); err != nil {
						t.Fatal(err)
					}
				}
				o.pinned[1] = true
				b.SetEvictionPolicy(tc.w)
				off, err := b.TryReserve(10, tc.size)
				if !errors.Is(err, tc.err) {
					t.Fatalf("TryReserve = %d, %v; want %v", off, err, tc.err)
				}
				if err == nil && off != 200 {
					t.Errorf("placed at %d, want 200", off)
				}
				if !slices.Equal(o.evictedCh, tc.victims) {
					t.Errorf("victims %v, want %v", o.evictedCh, tc.victims)
				}
				if err := b.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		})
	}
}
