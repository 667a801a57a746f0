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
