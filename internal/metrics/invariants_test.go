package metrics

import (
	"strings"
	"testing"
	"time"
)

// healthyRecorder builds a recorder whose books satisfy every invariant,
// for the violation tests to corrupt one field at a time.
func healthyRecorder() *Recorder {
	r := NewRecorder()
	r.Checkpoint(1000, time.Millisecond)
	r.CheckpointAccepted(1000)
	r.ConserveDurable(600)
	r.ConserveDiscarded(400)
	r.Retry("ssd")
	r.RetryBout(true)
	r.CritPath(CritPathRecord{
		Op: CritDurable, Version: 1, Total: 3 * time.Millisecond,
		Components: map[string]time.Duration{
			CompCopyD2D:  time.Millisecond,
			CompXferPCIe: time.Millisecond,
			CompXferSSD:  time.Millisecond,
		},
	})
	return r
}

// healthySummary is a snapshot of healthyRecorder.
func healthySummary() Summary { return healthyRecorder().Snapshot() }

// corruption damages a healthy recorder's books in one place; the check
// that catches it must say wantSub.
type corruption struct {
	name    string
	corrupt func(*Recorder)
	wantSub string
}

// violations are caught by the running invariants.
var violations = []corruption{
	{"fates over-credited", func(r *Recorder) { r.s.DurableBytes += 500 }, "over-credited"},
	{"negative accepted", func(r *Recorder) { r.s.AcceptedBytes = -1 }, "negative"},
	{"recovered bouts exceed retries", func(r *Recorder) { r.s.RetryBoutsRecovered = 99 }, "recovered bouts"},
	{"degradations exceed exhausted bouts", func(r *Recorder) { r.s.Degradations = map[string]int64{"ssd": 1} }, "exhausted bouts"},
	{"repopulations without fallback reads", func(r *Recorder) { r.s.Repopulations = 3 }, "fallback reads"},
	{"pipelined hop bytes diverge", func(r *Recorder) { r.s.PipelinedHopBytes += 7 }, "per-hop bytes"},
	{"histogram sum mismatch", func(r *Recorder) { r.hists[HistCheckpoint].count += 5 }, "bucket counts sum"},
	{"restore series length mismatch", func(r *Recorder) { r.s.RestoreOps = 4 }, "restore series"},
	{"critpath unattributed gap", func(r *Recorder) {
		r.crit.heads[0][0].unattributed = time.Millisecond
		r.crit.heads[0][0].total += time.Millisecond
	}, "unattributed latency gap"},
	{"critpath components diverge from total", func(r *Recorder) { r.crit.heads[0][0].total += time.Millisecond }, "!= total"},
	{"critpath component negative", func(r *Recorder) {
		r.crit.charges[0][0] = packCharge(CopyD2D, -time.Millisecond)
		r.crit.heads[0][0].total -= 2 * time.Millisecond
	}, "component d2d-copy negative"},
	{"critpath records outnumber durable checkpoints", func(r *Recorder) { r.s.DurableOps = 0 }, "durable records"},
}

// quiescentViolations are legal while the pipeline runs and caught only
// once it has drained.
var quiescentViolations = []corruption{
	// A durable version with no attribution ledger.
	{"missing critpath", func(r *Recorder) { r.crit = critStore{} }, "durable records"},
	// 100 bytes left with undecided fate.
	{"pending bytes", func(r *Recorder) { r.s.DiscardedBytes -= 100 }, "pending"},
	// A checkpoint the application saw but the pipeline never accepted.
	{"accept gap", func(r *Recorder) { r.s.CheckpointBytes += 512 }, "checkpointed"},
}

func TestCheckInvariantsHealthy(t *testing.T) {
	s := healthySummary()
	if err := CheckInvariants(s); err != nil {
		t.Errorf("healthy summary failed running invariants: %v", err)
	}
	if err := CheckInvariantsQuiescent(s); err != nil {
		t.Errorf("healthy drained summary failed quiescent invariants: %v", err)
	}
}

func TestCheckInvariantsViolations(t *testing.T) {
	for _, tc := range violations {
		t.Run(tc.name, func(t *testing.T) {
			r := healthyRecorder()
			tc.corrupt(r)
			err := CheckInvariants(r.Snapshot())
			if err == nil {
				t.Fatal("mutated summary passed invariants")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// quiescentOnly asserts that c passes the running invariants and fails
// the quiescent ones.
func quiescentOnly(t *testing.T, c corruption) {
	t.Helper()
	r := healthyRecorder()
	c.corrupt(r)
	s := r.Snapshot()
	if err := CheckInvariants(s); err != nil {
		t.Errorf("%s must be legal while running: %v", c.name, err)
	}
	err := CheckInvariantsQuiescent(s)
	if err == nil {
		t.Fatalf("quiescent check passed with %s", c.name)
	}
	if !strings.Contains(err.Error(), c.wantSub) {
		t.Errorf("error %q does not mention %q", err, c.wantSub)
	}
}

func TestCheckInvariantsQuiescentCatchesMissingCritPath(t *testing.T) {
	quiescentOnly(t, quiescentViolations[0])
}

func TestCheckInvariantsQuiescentCatchesPending(t *testing.T) {
	quiescentOnly(t, quiescentViolations[1])
}

func TestCheckInvariantsQuiescentCatchesAcceptGap(t *testing.T) {
	quiescentOnly(t, quiescentViolations[2])
}

// TestRecorderChecksAgreeWithSnapshotChecks: the recorder's own checks
// read its books in place, and must say exactly what the package checks
// say of a Snapshot — on a clean recorder and on every corruption above.
func TestRecorderChecksAgreeWithSnapshotChecks(t *testing.T) {
	cases := append([]corruption{{name: "clean", corrupt: func(*Recorder) {}}}, violations...)
	cases = append(cases, quiescentViolations...)
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, tc := range cases {
		r := healthyRecorder()
		tc.corrupt(r)
		s := r.Snapshot()
		if got, want := text(r.CheckInvariants()), text(CheckInvariants(s)); got != want {
			t.Errorf("%s: running check in place says %q, on a snapshot %q", tc.name, got, want)
		}
		if got, want := text(r.CheckInvariantsQuiescent()), text(CheckInvariantsQuiescent(s)); got != want {
			t.Errorf("%s: quiescent check in place says %q, on a snapshot %q", tc.name, got, want)
		}
	}
}

func TestCheckInvariantsQuiescentSkipsUntrackedRuns(t *testing.T) {
	// A summary from a run that predates fate tracking (all conservation
	// counters zero) must not fail the quiescent balance.
	var s Summary
	s.CheckpointBytes = 1000
	if err := CheckInvariantsQuiescent(s); err != nil {
		t.Errorf("untracked summary failed quiescent invariants: %v", err)
	}
}
