// Package lifecycle implements the checkpoint life-cycle finite-state
// machine of the paper's Figure 1. Every replica of a checkpoint on every
// cache tier carries one Machine; the runtime drives transitions and the
// eviction policy consults evictability.
//
// The life cycle unifies flushing and prefetching: a replica is born INIT,
// follows the checkpointing path (WRITE_IN_PROGRESS → WRITE_COMPLETE →
// FLUSHED) when it serves a checkpoint request, or the prefetching path
// (READ_IN_PROGRESS → READ_COMPLETE → CONSUMED) when it serves a restore.
// A replica that is still cached when a restore arrives shortcuts from
// WRITE_COMPLETE (or FLUSHED) directly to READ_COMPLETE. Only FLUSHED and
// CONSUMED replicas are evictable; a prefetched replica is pinned until
// consumed (paper §2, condition 4).
package lifecycle

import (
	"fmt"
	"slices"

	"score/internal/simclock"
)

// State enumerates the life-cycle states of Figure 1.
type State int

const (
	// Init is the birth state of every replica.
	Init State = iota
	// WriteInProgress: data is being copied into this tier from the
	// application buffer or a faster tier.
	WriteInProgress
	// WriteComplete: the copy into this tier finished; flushes to
	// slower tiers may still be pending.
	WriteComplete
	// Flushed: all pending flushes from this tier completed and no
	// restore or prefetch is pending. Evictable.
	Flushed
	// ReadInProgress: data is being promoted into this tier from a
	// slower tier to serve a (pre)fetch.
	ReadInProgress
	// ReadComplete: the promoted copy is ready to serve the restore.
	// Pinned until consumed.
	ReadComplete
	// Consumed: the application has copied the data out. Evictable.
	Consumed
)

var stateNames = [...]string{
	Init:            "INIT",
	WriteInProgress: "WRITE_IN_PROGRESS",
	WriteComplete:   "WRITE_COMPLETE",
	Flushed:         "FLUSHED",
	ReadInProgress:  "READ_IN_PROGRESS",
	ReadComplete:    "READ_COMPLETE",
	Consumed:        "CONSUMED",
}

// String returns the paper's name for the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// Evictable reports whether a replica in this state may be evicted from
// its cache tier.
func (s State) Evictable() bool { return s == Flushed || s == Consumed }

// transitions is the edge set of Figure 1.
var transitions = map[State][]State{
	Init:            {WriteInProgress, ReadInProgress},
	WriteInProgress: {WriteComplete},
	WriteComplete:   {Flushed, ReadComplete},
	Flushed:         {ReadComplete},
	ReadInProgress:  {ReadComplete},
	ReadComplete:    {Consumed},
	Consumed:        {ReadComplete, ReadInProgress}, // re-read of a retained checkpoint
}

// Legal reports whether the transition from → to is an edge of the FSM.
func Legal(from, to State) bool {
	for _, s := range transitions[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Machine is one replica's life-cycle state with clock-aware waiting.
// The zero value is usable once Init gives it a clock, so a machine can
// live inside the record that owns it; NewMachine allocates one apart.
//
// Only the tasks of its clock use it; one runs at a time, so it takes no
// lock, and the eviction rule's many State reads are plain loads. Most
// replicas are never waited on, so the machine holds a cond only while a
// WaitFor is parked, borrowed from the clock's spares (simclock.WaitList):
// waiting costs no allocation, and the machine one pointer.
type Machine struct {
	clk       *simclock.Virtual
	waiters   simclock.WaitList
	state     State
	abandoned bool // no transition will ever come; WaitFor returns at once
}

// NewMachine returns a Machine in the Init state.
func NewMachine(clk *simclock.Virtual) *Machine {
	m := new(Machine)
	m.Init(clk)
	return m
}

// Init readies a zero Machine in the Init state, waiting on clk. Call it
// once, before the machine is shared.
func (m *Machine) Init(clk *simclock.Virtual) { m.clk = clk }

// State returns the current state.
func (m *Machine) State() State { return m.state }

// To performs the transition to state to, returning an error if the
// transition is not an edge of Figure 1. Waiters are notified on success.
func (m *Machine) To(to State) error {
	from := m.state
	if !Legal(from, to) {
		return fmt.Errorf("lifecycle: illegal transition %v → %v", from, to)
	}
	m.state = to
	m.wake()
	return nil
}

// TryTo is To for callers that expect some refusals: it reports whether
// the transition happened, and a refusal leaves the state and the waiters
// alone and allocates nothing.
func (m *Machine) TryTo(to State) bool {
	ok := Legal(m.state, to)
	if ok {
		m.state = to
		m.wake()
	}
	return ok
}

// MustTo is To but panics on an illegal transition; used where the runtime
// guarantees legality by construction.
func (m *Machine) MustTo(to State) {
	if err := m.To(to); err != nil {
		panic(err)
	}
}

// WaitFor blocks until the machine is in one of the given states and
// returns that state — or until the machine is abandoned, returning the
// state it stopped in, which is then none of those asked for.
func (m *Machine) WaitFor(states ...State) State {
	for {
		cur := m.state
		if m.abandoned || slices.Contains(states, cur) {
			return cur
		}
		m.waiters.Wait(m.clk)
	}
}

// Abandon declares that the machine will never move again — its replica
// record was dropped mid-flight — and releases every current and future
// WaitFor, so no task stays parked on a machine nobody owns.
func (m *Machine) Abandon() {
	m.abandoned = true
	m.wake()
}

// wake releases the parked waiters, if any.
func (m *Machine) wake() { m.waiters.Broadcast() }
