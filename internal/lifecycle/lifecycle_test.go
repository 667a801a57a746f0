package lifecycle

import (
	"testing"
	"testing/quick"
	"time"

	"score/internal/simclock"
)

func TestCheckpointingPath(t *testing.T) {
	clk := simclock.NewVirtual()
	m := NewMachine(clk)
	for _, s := range []State{WriteInProgress, WriteComplete, Flushed} {
		if err := m.To(s); err != nil {
			t.Fatalf("transition to %v: %v", s, err)
		}
	}
	if !m.State().Evictable() {
		t.Error("Flushed replica must be evictable")
	}
}

func TestPrefetchingPath(t *testing.T) {
	clk := simclock.NewVirtual()
	m := NewMachine(clk)
	for _, s := range []State{ReadInProgress, ReadComplete, Consumed} {
		if err := m.To(s); err != nil {
			t.Fatalf("transition to %v: %v", s, err)
		}
	}
	if !m.State().Evictable() {
		t.Error("Consumed replica must be evictable")
	}
}

func TestWriteCompleteShortcutsToReadComplete(t *testing.T) {
	// A restore arriving while the replica is still cached skips the
	// prefetch path entirely (Fig. 1).
	clk := simclock.NewVirtual()
	m := NewMachine(clk)
	m.MustTo(WriteInProgress)
	m.MustTo(WriteComplete)
	if err := m.To(ReadComplete); err != nil {
		t.Fatalf("WriteComplete → ReadComplete: %v", err)
	}
	if m.State().Evictable() {
		t.Error("ReadComplete replica must be pinned (not evictable)")
	}
	m.MustTo(Consumed)
}

func TestFlushedToReadComplete(t *testing.T) {
	// "...or was already flushed but not evicted yet. In this case, the
	// checkpoint transitions directly into the Read Complete state."
	clk := simclock.NewVirtual()
	m := NewMachine(clk)
	m.MustTo(WriteInProgress)
	m.MustTo(WriteComplete)
	m.MustTo(Flushed)
	if err := m.To(ReadComplete); err != nil {
		t.Fatalf("Flushed → ReadComplete: %v", err)
	}
}

func TestIllegalTransitionsRejected(t *testing.T) {
	clk := simclock.NewVirtual()
	illegal := []struct{ from, to State }{
		{Init, WriteComplete},
		{Init, Flushed},
		{Init, ReadComplete},
		{Init, Consumed},
		{WriteInProgress, Flushed},
		{WriteInProgress, ReadInProgress},
		{WriteComplete, WriteInProgress},
		{Flushed, WriteInProgress},
		{Flushed, Consumed},
		{ReadInProgress, Consumed},
		{ReadComplete, WriteInProgress},
		{ReadComplete, Flushed},
		{Consumed, WriteInProgress},
		{Consumed, Flushed},
	}
	for _, tc := range illegal {
		m := NewMachine(clk)
		// Drive the machine to tc.from via a legal route.
		route := routeTo(tc.from)
		for _, s := range route {
			m.MustTo(s)
		}
		if err := m.To(tc.to); err == nil {
			t.Errorf("transition %v → %v should be illegal", tc.from, tc.to)
		}
		if got := m.State(); got != tc.from {
			t.Errorf("failed transition changed state to %v", got)
		}
	}
}

// routeTo returns a legal transition sequence from Init to s.
func routeTo(s State) []State {
	switch s {
	case Init:
		return nil
	case WriteInProgress:
		return []State{WriteInProgress}
	case WriteComplete:
		return []State{WriteInProgress, WriteComplete}
	case Flushed:
		return []State{WriteInProgress, WriteComplete, Flushed}
	case ReadInProgress:
		return []State{ReadInProgress}
	case ReadComplete:
		return []State{ReadInProgress, ReadComplete}
	case Consumed:
		return []State{ReadInProgress, ReadComplete, Consumed}
	}
	panic("unknown state")
}

func TestConsumedCanBeReRead(t *testing.T) {
	clk := simclock.NewVirtual()
	m := NewMachine(clk)
	m.MustTo(ReadInProgress)
	m.MustTo(ReadComplete)
	m.MustTo(Consumed)
	if err := m.To(ReadComplete); err != nil {
		t.Errorf("Consumed → ReadComplete (re-read while cached): %v", err)
	}
	m.MustTo(Consumed)
	if err := m.To(ReadInProgress); err != nil {
		t.Errorf("Consumed → ReadInProgress (re-promotion): %v", err)
	}
}

func TestWaitForBlocksUntilState(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		m := NewMachine(clk)
		m.MustTo(WriteInProgress)
		var reachedAt time.Duration
		wg := simclock.NewWaitGroup(clk)
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			m.WaitFor(Flushed, Consumed)
			reachedAt = clk.Now()
		})
		clk.Sleep(3 * time.Second)
		m.MustTo(WriteComplete)
		clk.Sleep(2 * time.Second)
		m.MustTo(Flushed)
		wg.Wait()
		if reachedAt != 5*time.Second {
			t.Errorf("WaitFor returned at %v, want 5s", reachedAt)
		}
	})
}

// TestTransitionAllocatesNothing: the runtime makes some twenty
// transitions per checkpoint version, so one allocation in To is tens of
// thousands per shot.
func TestTransitionAllocatesNothing(t *testing.T) {
	m := NewMachine(simclock.NewVirtual())
	m.MustTo(ReadInProgress)
	m.MustTo(ReadComplete)
	if n := testing.AllocsPerRun(100, func() {
		m.MustTo(Consumed)
		m.MustTo(ReadComplete)
	}); n != 0 {
		t.Errorf("two transitions allocate %v times, want 0", n)
	}
}

func TestStateStringAndEvictable(t *testing.T) {
	if Init.String() != "INIT" || Flushed.String() != "FLUSHED" {
		t.Error("unexpected state names")
	}
	if State(99).String() != "State(99)" {
		t.Error("out-of-range state should format numerically")
	}
	evictable := map[State]bool{Flushed: true, Consumed: true}
	for s := Init; s <= Consumed; s++ {
		if got := s.Evictable(); got != evictable[s] {
			t.Errorf("%v.Evictable() = %v, want %v", s, got, evictable[s])
		}
	}
}

func TestTransitionClosureProperty(t *testing.T) {
	// Property: from any reachable state, applying any sequence of
	// attempted transitions never reaches an undefined state and Legal
	// exactly matches the success of To.
	f := func(steps []uint8) bool {
		clk := simclock.NewVirtual()
		m := NewMachine(clk)
		for _, b := range steps {
			to := State(int(b) % 7)
			from := m.State()
			err := m.To(to)
			if Legal(from, to) != (err == nil) {
				return false
			}
			if err != nil && m.State() != from {
				return false
			}
			if err == nil && m.State() != to {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMachineMakesItsCondOnlyToPark: most replicas are never waited on,
// so a Machine holds a cond only while a WaitFor is parked on it.
// Transitions and waits that need not park take none, a parked wait is
// released by To and by Abandon on either timer structure, and a wait
// after Abandon returns at once.
func TestMachineMakesItsCondOnlyToPark(t *testing.T) {
	hasCond := func(m *Machine) bool {
		return m.waiters.Waiting()
	}

	m := NewMachine(simclock.NewVirtual())
	for _, s := range routeTo(Consumed) {
		m.MustTo(s)
	}
	if got := m.WaitFor(Consumed); got != Consumed || hasCond(m) {
		t.Errorf("unparked life cycle: WaitFor = %v, cond held = %v; want CONSUMED, false", got, hasCond(m))
	}

	m = NewMachine(simclock.NewVirtual())
	m.Abandon()
	if got := m.WaitFor(Flushed); got != Init || hasCond(m) {
		t.Errorf("WaitFor after Abandon = %v, cond held = %v; want INIT at once, false", got, hasCond(m))
	}

	for _, clock := range []struct {
		name string
		opts []simclock.VirtualOption
	}{{"wheel", nil}, {"heap", []simclock.VirtualOption{simclock.WithHeapTimers()}}} {
		for _, release := range []struct {
			name string
			fn   func(*Machine)
			want State
		}{
			{"To", func(m *Machine) { m.MustTo(WriteComplete) }, WriteComplete},
			{"Abandon", (*Machine).Abandon, WriteInProgress},
		} {
			clk := simclock.NewVirtual(clock.opts...)
			clk.Run(func() {
				m := NewMachine(clk)
				m.MustTo(WriteInProgress)
				var got State
				var at time.Duration
				wg := simclock.NewWaitGroup(clk)
				wg.Add(1)
				clk.Go(func() {
					defer wg.Done()
					got = m.WaitFor(WriteComplete)
					at = clk.Now()
				})
				clk.Sleep(time.Second)
				if !hasCond(m) {
					t.Errorf("%s/%s: a parked WaitFor holds no cond", clock.name, release.name)
				}
				release.fn(m)
				wg.Wait()
				if got != release.want || at != time.Second {
					t.Errorf("%s/%s: WaitFor = %v at %v, want %v at 1s", clock.name, release.name, got, at, release.want)
				}
			})
		}
	}
}

// TestRefusedTryToIsInert: a refused TryTo allocates nothing, leaves the
// state where it was and resumes no parked waiter; an allowed one moves
// the machine like To.
func TestRefusedTryToIsInert(t *testing.T) {
	m := NewMachine(simclock.NewVirtual())
	m.MustTo(WriteInProgress)
	if n := testing.AllocsPerRun(100, func() {
		if m.TryTo(Flushed) {
			t.Fatal("TryTo(FLUSHED) from WRITE_IN_PROGRESS succeeded")
		}
	}); n != 0 {
		t.Errorf("a refused TryTo allocates %v times, want 0", n)
	}
	if got := m.State(); got != WriteInProgress {
		t.Errorf("refused TryTo moved the state to %v", got)
	}

	clk := simclock.NewVirtual()
	clk.Run(func() {
		m := NewMachine(clk)
		m.MustTo(WriteInProgress)
		var at time.Duration
		wg := simclock.NewWaitGroup(clk)
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			m.WaitFor(WriteComplete)
			at = clk.Now()
		})
		clk.Sleep(time.Second)
		before := simclock.EventCount()
		if m.TryTo(Consumed) {
			t.Error("TryTo(CONSUMED) from WRITE_IN_PROGRESS succeeded")
		}
		clk.Sleep(time.Second)
		// Only this task's own Sleep resumed anything.
		if got := simclock.EventCount() - before; got != 1 {
			t.Errorf("a refused TryTo and a sleep resumed %d tasks, want 1", got)
		}
		if !m.TryTo(WriteComplete) {
			t.Error("TryTo(WRITE_COMPLETE) from WRITE_IN_PROGRESS refused")
		}
		wg.Wait()
		if at != 2*time.Second || m.State() != WriteComplete {
			t.Errorf("waiter released at %v in %v, want 2s in WRITE_COMPLETE", at, m.State())
		}
	})
}

// TestInitMachineMatchesNewMachine: a zero Machine made ready with Init
// parks a waiter and releases it on To and on Abandon exactly as one
// from NewMachine does — same state, same instant, same resumptions.
func TestInitMachineMatchesNewMachine(t *testing.T) {
	type outcome struct {
		state   State
		at      time.Duration
		resumed uint64
	}
	park := func(newM func(*simclock.Virtual) *Machine, release func(*Machine)) outcome {
		var o outcome
		clk := simclock.NewVirtual()
		clk.Run(func() {
			m := newM(clk)
			m.MustTo(WriteInProgress)
			wg := simclock.NewWaitGroup(clk)
			wg.Add(1)
			before := simclock.EventCount()
			clk.Go(func() {
				defer wg.Done()
				o.state = m.WaitFor(WriteComplete)
				o.at = clk.Now()
			})
			clk.Sleep(time.Second)
			release(m)
			wg.Wait()
			o.resumed = simclock.EventCount() - before
		})
		return o
	}
	embedded := func(clk *simclock.Virtual) *Machine {
		var rec struct {
			tag int
			fsm Machine
		}
		rec.fsm.Init(clk)
		return &rec.fsm
	}
	for _, release := range []struct {
		name string
		fn   func(*Machine)
		want State
	}{
		{"To", func(m *Machine) { m.MustTo(WriteComplete) }, WriteComplete},
		{"Abandon", (*Machine).Abandon, WriteInProgress},
	} {
		got, want := park(embedded, release.fn), park(NewMachine, release.fn)
		if got != want || want.state != release.want || want.at != time.Second {
			t.Errorf("%s: Init-ed machine %+v, NewMachine %+v; want %v at 1s for both",
				release.name, got, want, release.want)
		}
	}
}
