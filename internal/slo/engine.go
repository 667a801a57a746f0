package slo

import (
	"fmt"
	"sort"
	"time"

	"score/internal/metrics"
)

// Engine evaluates a fixed set of objectives against an observation
// stream on the virtual clock. Observations landing at the same
// simulated instant are buffered and folded in one commutative batch
// when a later-timestamped observation (or Finalize) arrives, so the
// evaluated state — and therefore every alert transition — is
// independent of goroutine wake order within an instant. That is the
// byte-determinism contract pinned by slo_determinism_test.go.
//
// All methods are nil-safe no-ops on a nil engine, which is what makes
// the disabled path free: callers hold a nil sink and pay one branch.
// The observers feeding it are tasks of one clock, which runs one at a
// time, so it takes no lock.
type Engine struct {
	now func() time.Duration

	objs    []*objState
	pendAt  time.Duration
	pendAny bool
	alerts  []Alert
	done    bool
	sink    func(Alert)
}

// compDurations are per-component durations, indexed by metrics.Comp.
type compDurations = [metrics.NumComps]time.Duration

// bucket is one error-budget resolution slot: good/bad counts plus the
// summed critical-path components of the bad events (for attribution).
type bucket struct {
	good, bad int64
	comps     compDurations
}

type objState struct {
	obj Objective
	res time.Duration
	// slots is a ring over absolute bucket indices (at / res); slotIdx
	// records which absolute index currently occupies each slot so stale
	// buckets are skipped without eager zeroing.
	slots   []bucket
	slotIdx []int64

	// Cumulative run totals.
	good, bad int64
	comps     compDurations

	// Same-instant staging, folded at flush.
	pendGood, pendBad int64
	pendComps         compDurations

	firing   []bool // per window pair
	fired    int64
	resolved int64
	peakBurn float64
}

// NewEngine builds an engine reading virtual time from now. Objectives
// are validated and evaluated in the given order.
func NewEngine(now func() time.Duration, objs ...Objective) (*Engine, error) {
	if now == nil {
		return nil, fmt.Errorf("slo: nil clock function")
	}
	e := &Engine{now: now}
	seen := map[string]bool{}
	for _, o := range objs {
		if err := o.validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true

		res := o.Resolution
		if res == 0 {
			shortest := time.Duration(0)
			for _, w := range o.Windows {
				if shortest == 0 || w.Short < shortest {
					shortest = w.Short
				}
			}
			res = shortest / 4
		}
		if res <= 0 {
			res = 1
		}
		longest := time.Duration(0)
		for _, w := range o.Windows {
			if w.Long > longest {
				longest = w.Long
			}
		}
		n := int(longest/res) + 2
		st := &objState{
			obj:     o,
			res:     res,
			slots:   make([]bucket, n),
			slotIdx: make([]int64, n),
			firing:  make([]bool, len(o.Windows)),
		}
		for i := range st.slotIdx {
			st.slotIdx[i] = -1
		}
		e.objs = append(e.objs, st)
	}
	return e, nil
}

// SetAlertSink registers fn to receive every fire/resolve transition,
// in evaluation order, once the observation that caused it is staged.
// Nil-safe.
func (e *Engine) SetAlertSink(fn func(Alert)) {
	if e == nil {
		return
	}
	e.sink = fn
}

// deepComps are the restore components that mean the GPU/host caches
// missed and a deep tier served the bytes.
var deepComps = [...]metrics.Comp{metrics.XferSSD, metrics.XferPFS, metrics.XferPartner}

// ObserveCritPath is ObserveAttribution on rec's array form; a component
// name outside metrics.CompNames panics. Nil-safe.
func (e *Engine) ObserveCritPath(rec metrics.CritPathRecord) {
	if e != nil {
		e.ObserveAttribution(metrics.AttributionOf(rec))
	}
}

// ObserveAttribution routes one critical-path attribution: restore
// records feed restore-latency and hit-rate objectives, durable records
// feed durable-latency objectives. The observation instant is the
// record's completion time (Start + Total) — no clock read, so records
// replayed from other clocks stay on their own timeline. Nil-safe.
func (e *Engine) ObserveAttribution(a metrics.Attribution) {
	if e == nil || len(e.objs) == 0 {
		return
	}
	at := a.Start + a.Total
	fired := e.advance(at)
	for _, st := range e.objs {
		switch st.obj.Kind {
		case KindRestoreLatency:
			if a.Op == metrics.CritRestore {
				st.stage(a.Total <= st.obj.Threshold, &a.Comps)
			}
		case KindDurableLatency:
			if a.Op == metrics.CritDurable {
				st.stage(a.Total <= st.obj.Threshold, &a.Comps)
			}
		case KindHitRate:
			if a.Op == metrics.CritRestore {
				st.stageHit(&a.Comps)
			}
		}
	}
	e.emit(fired)
}

// ObserveDrain feeds one preemption-drain outcome to drain-deadline
// objectives, stamped at the engine clock's current instant. Nil-safe.
func (e *Engine) ObserveDrain(met bool) {
	e.Observe(KindDrainDeadline, met, nil)
}

// Observe feeds one good/bad event to every objective of the given
// kind, stamped at the engine clock's current instant; comps attributes
// a bad event's cost to critical-path components, and a name outside
// metrics.CompNames panics. Nil-safe.
func (e *Engine) Observe(kind Kind, good bool, comps map[string]time.Duration) {
	if e == nil || len(e.objs) == 0 {
		return
	}
	arr := metrics.CompsOf(comps)
	at := e.now()
	fired := e.advance(at)
	for _, st := range e.objs {
		if st.obj.Kind == kind {
			st.stage(good, &arr)
		}
	}
	e.emit(fired)
}

// Finalize folds any staged observations and runs a last evaluation at
// their instant. Idempotent; nil-safe.
func (e *Engine) Finalize() {
	if e == nil {
		return
	}
	var fired []Alert
	if !e.done {
		fired = e.flush()
		e.done = true
	}
	e.emit(fired)
}

// Report snapshots per-objective compliance and the alert history.
// Call after Finalize for end-of-run numbers. Nil-safe.
func (e *Engine) Report() Report {
	if e == nil {
		return Report{}
	}
	rep := Report{Alerts: append([]Alert(nil), e.alerts...)}
	for _, st := range e.objs {
		r := ObjectiveResult{
			Objective:       st.obj,
			Events:          st.good + st.bad,
			Good:            st.good,
			Compliance:      1,
			BudgetRemaining: 1,
			PeakBurn:        st.peakBurn,
			Fired:           st.fired,
			Resolved:        st.resolved,
			Attribution:     dominantComps(&st.comps),
		}
		if r.Events > 0 {
			r.Compliance = float64(st.good) / float64(r.Events)
			r.BudgetRemaining = 1 - (1-r.Compliance)/(1-st.obj.Goal)
		}
		for _, f := range st.firing {
			r.Firing = r.Firing || f
		}
		rep.Objectives = append(rep.Objectives, r)
	}
	return rep
}

// stage buffers one observation at the engine's pending instant.
func (st *objState) stage(good bool, comps *compDurations) {
	if good {
		st.pendGood++
		return
	}
	st.pendBad++
	for c, d := range comps {
		st.pendComps[c] += d
	}
}

// stageHit stages one restore for a hit-rate objective straight from its
// record's components: a hit when no deep component was charged, else a
// miss costed by the deep components alone.
func (st *objState) stageHit(comps *compDurations) {
	hit := true
	for _, c := range deepComps {
		if comps[c] > 0 {
			hit = false
			break
		}
	}
	if hit {
		st.pendGood++
		return
	}
	st.pendBad++
	for _, c := range deepComps {
		if d := comps[c]; d > 0 {
			st.pendComps[c] += d
		}
	}
}

// advance flushes the pending instant when at moves past it.
// Timestamps are clamped to the pending instant so a same-or-earlier
// arrival (records finalized out of order) can never rewind a window.
func (e *Engine) advance(at time.Duration) []Alert {
	if !e.pendAny {
		e.pendAt, e.pendAny = at, true
		return nil
	}
	if at <= e.pendAt {
		return nil
	}
	fired := e.flush()
	e.pendAt = at
	return fired
}

// flush folds every objective's staged batch into its bucket ring
// at the pending instant and evaluates all window pairs there.
func (e *Engine) flush() []Alert {
	if !e.pendAny {
		return nil
	}
	at := e.pendAt
	var fired []Alert
	for i, st := range e.objs {
		if st.pendGood+st.pendBad > 0 {
			abs := int64(at / st.res)
			slot := int(abs % int64(len(st.slots)))
			if st.slotIdx[slot] != abs {
				st.slots[slot] = bucket{}
				st.slotIdx[slot] = abs
			}
			b := &st.slots[slot]
			b.good += st.pendGood
			b.bad += st.pendBad
			for c, d := range st.pendComps {
				b.comps[c] += d
				st.comps[c] += d
			}
			st.good += st.pendGood
			st.bad += st.pendBad
			st.pendGood, st.pendBad, st.pendComps = 0, 0, compDurations{}
		}
		fired = append(fired, e.evaluate(i, at)...)
	}
	return fired
}

// evaluate runs objective i's window pairs at instant at and
// returns any fire/resolve transitions.
func (e *Engine) evaluate(i int, at time.Duration) []Alert {
	st := e.objs[i]
	var out []Alert
	for wi, w := range st.obj.Windows {
		goodL, badL, _ := st.window(at, w.Long, false)
		goodS, badS, _ := st.window(at, w.Short, false)
		burnL := burn(goodL, badL, st.obj.Goal)
		burnS := burn(goodS, badS, st.obj.Goal)
		if burnL > st.peakBurn {
			st.peakBurn = burnL
		}
		cond := burnL >= w.Rate && burnS >= w.Rate
		if cond == st.firing[wi] {
			continue
		}
		st.firing[wi] = cond
		a := Alert{
			Objective:       st.obj.Name,
			Class:           st.obj.Class,
			Kind:            st.obj.Kind,
			At:              at,
			Window:          w,
			Burn:            burnL,
			BudgetRemaining: budgetRemaining(st),
		}
		if cond {
			a.Event = EventFire
			st.fired++
			_, _, comps := st.window(at, w.Long, true)
			a.Attribution = dominantComps(&comps)
		} else {
			a.Event = EventResolve
			st.resolved++
		}
		e.alerts = append(e.alerts, a)
		out = append(out, a)
	}
	return out
}

// window sums the buckets covering (at − span, at]; withComps also
// merges the bad-event component attribution.
func (st *objState) window(at, span time.Duration, withComps bool) (good, bad int64, sum compDurations) {
	cur := int64(at / st.res)
	min := int64(0)
	if at > span {
		min = int64((at-span)/st.res) + 1
	}
	for abs := min; abs <= cur; abs++ {
		slot := int(abs % int64(len(st.slots)))
		if st.slotIdx[slot] != abs {
			continue
		}
		b := &st.slots[slot]
		good += b.good
		bad += b.bad
		if withComps {
			for c, d := range b.comps {
				sum[c] += d
			}
		}
	}
	return good, bad, sum
}

// burn is the error-budget burn rate: the bad fraction relative to the
// budget (1 − goal). Zero with no events.
func burn(good, bad int64, goal float64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - goal)
}

// budgetRemaining is the cumulative budget left: 1 with no events,
// negative once the run has overspent.
func budgetRemaining(st *objState) float64 {
	total := st.good + st.bad
	if total == 0 {
		return 1
	}
	badFrac := float64(st.bad) / float64(total)
	return 1 - badFrac/(1-st.obj.Goal)
}

// emit delivers transitions to the sink once the engine's state is updated.
func (e *Engine) emit(alerts []Alert) {
	if len(alerts) == 0 {
		return
	}
	sink := e.sink
	if sink == nil {
		return
	}
	for _, a := range alerts {
		sink(a)
	}
}

// dominantComps names the components carrying the bulk of the bad-event
// cost: largest first (name tie-break), taking components until they
// cover two thirds of the total, capped at two — "xfer-pfs +
// retry-backoff"-shaped.
func dominantComps(comps *compDurations) string {
	type cd struct {
		name string
		d    time.Duration
	}
	var all []cd
	var total time.Duration
	for c, d := range comps {
		if d > 0 {
			all = append(all, cd{metrics.CompNames[c], d})
			total += d
		}
	}
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].name < all[j].name
	})
	out := all[0].name
	if all[0].d*3 < total*2 && len(all) > 1 {
		out += " + " + all[1].name
	}
	return out
}
