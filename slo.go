package score

import "score/internal/slo"

// Public surface of the SLO engine (internal/slo, DESIGN.md §17),
// following the fault-injection pattern: the internal types are
// re-exported as aliases and the Sim owns construction so the engine
// reads the simulation's virtual clock.

// SLOObjective declares one objective: a kind, a goal (good-event
// fraction), a latency threshold for the latency kinds, and one or more
// multi-window burn-rate alerting pairs.
type SLOObjective = slo.Objective

// SLOWindow is one (long, short, rate) burn-rate alerting pair.
type SLOWindow = slo.Window

// SLOKind names what an objective measures.
type SLOKind = slo.Kind

// Objective kinds.
const (
	SLORestoreLatency = slo.KindRestoreLatency
	SLODurableLatency = slo.KindDurableLatency
	SLODrainDeadline  = slo.KindDrainDeadline
	SLOHitRate        = slo.KindHitRate
)

// SLOAlert is one fire/resolve transition; SLOReport the end-of-run
// compliance summary.
type (
	SLOAlert  = slo.Alert
	SLOReport = slo.Report
)

// NewSLOEngine builds an SLO engine on this simulation's virtual clock.
// Attach it to clients with WithSLO; after the run, call Finalize then
// Report on the engine for compliance and alert history.
func (s *Sim) NewSLOEngine(objs ...SLOObjective) (*slo.Engine, error) {
	return slo.NewEngine(s.clk.Now, objs...)
}
