package core

import (
	"sync"
	"time"

	"score/internal/metrics"
	"score/internal/trace"
)

// Critical-path attribution (the causal half of the observability
// layer). Each checkpoint's durable chain and each restore is one
// sequential sequence of waits and transfers under the virtual clock:
// code between sleeps takes zero simulated time, so charging the
// interval since the previous mark to a component after every blocking
// step decomposes the end-to-end latency exactly — the components
// telescope to the measured total by construction, and any positive
// residue at finish means an instrumentation gap (surfaced as
// Unattributed, which the metrics invariant requires to be zero).

// attrib accumulates the telescoping decomposition of one interval.
// The durable chain hands it from the application thread to the T_D2H
// and T_H2F workers sequentially; the mutex covers the rare overlap of
// a late best-effort mark with finish.
type attrib struct {
	mu      sync.Mutex
	op      string // metrics.CritDurable or metrics.CritRestore
	version int64
	start   time.Duration
	last    time.Duration // cursor: end of the last attributed segment
	comps   map[string]time.Duration
	done    bool
}

func newAttrib(op string, version int64, start time.Duration) *attrib {
	return &attrib{op: op, version: version, start: start, last: start}
}

// mark charges [a.last, now) to comp and advances the cursor. Nil-safe
// and a no-op after finish, so best-effort legs running past the
// durable point cannot distort the record.
func (a *attrib) mark(now time.Duration, comp string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done {
		return
	}
	if d := now - a.last; d > 0 {
		if a.comps == nil {
			a.comps = map[string]time.Duration{}
		}
		a.comps[comp] += d
	}
	a.last = now
}

// finish closes the interval at now and returns the attribution record.
// Time between the last mark and now is the unattributed residue — zero
// on a correctly instrumented path.
func (a *attrib) finish(now time.Duration) metrics.CritPathRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.done = true
	comps := make(map[string]time.Duration, len(a.comps))
	for k, v := range a.comps {
		comps[k] = v
	}
	return metrics.CritPathRecord{
		Op:           a.op,
		Version:      a.version,
		Start:        a.start,
		Total:        now - a.start,
		Components:   comps,
		Unattributed: now - a.last,
	}
}

// mark charges the time since att's cursor to comp at the current
// virtual time.
func (c *Client) mark(att *attrib, comp string) {
	att.mark(c.clk.Now(), comp)
}

// flowID derives the deterministic causal-chain ID linking every span
// of one checkpoint version across tracks: a pure function of
// (GPU, version), never a shared counter, so trace exports stay
// byte-reproducible under the virtual clock's real-scheduler
// interleavings.
func (c *Client) flowID(id ID) int64 {
	return (int64(c.p.GPU.ID())+1)<<32 | (int64(id) + 1)
}

// lifecycle appends one entry to the tracer's per-rank flight recorder
// (the checkpoint lifecycle ledger). The GPU ID keys the ring — it is
// the process identity everywhere else in the trace. Nil-safe.
func (c *Client) lifecycle(id ID, kind trace.LifecycleKind, tier, detail string) {
	c.p.Tracer.Lifecycle(c.p.GPU.ID(), int64(id), kind, tier, detail)
}
