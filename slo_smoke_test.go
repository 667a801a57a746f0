package score_test

import (
	"strings"
	"testing"

	"score/internal/experiments"
)

// TestSLOSmoke is the `make slo-smoke` observability gate: the straggler
// sweep run under SLO, the path ckptbench -slo takes, so under its
// checked-in restore-tail objective, must produce the end-to-end alert
// story — the healthy control fires nothing and keeps its full error
// budget, while the 20× gray straggler fires the restore-p99 burn-rate
// alert with the transfer component (the degraded link) dominating the
// attribution.
func TestSLOSmoke(t *testing.T) {
	res, err := experiments.Straggler(experiments.Run{Scale: experiments.Full(), SLO: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range res.Cells {
		if c.SLO == nil {
			t.Fatalf("%s: no SLO report attached", c.Label())
		}
		rep := *c.SLO
		if len(rep.Objectives) != 1 {
			t.Fatalf("%s: %d objectives, want 1", c.Label(), len(rep.Objectives))
		}
		o := rep.Objectives[0]
		t.Logf("%-16s events %-3d compliance %.3f budget %+.2f peak burn %5.1f alerts %d/%d attr %q",
			c.Label(), o.Events, o.Compliance, o.BudgetRemaining, o.PeakBurn, o.Fired, o.Resolved, o.Attribution)
		if len(rep.Warnings) != 0 {
			t.Errorf("%s: unexpected conservation warnings: %v", c.Label(), rep.Warnings)
		}
		// Every cell restores the full backlog; the engine must have seen
		// exactly one latency event per restore — no lost observations.
		if o.Events != int64(c.Restores) {
			t.Errorf("%s: engine saw %d restore events, client made %d restores",
				c.Label(), o.Events, c.Restores)
		}
	}

	// Healthy control: no alert fires and the budget stays untouched.
	for _, hedged := range []bool{false, true} {
		c, ok := res.Cell(1, hedged)
		if !ok {
			t.Fatal("healthy control cell missing")
		}
		o := c.SLO.Objectives[0]
		if o.Fired != 0 || c.SLO.Breached() {
			t.Errorf("%s: healthy control breached (fired %d, met %v)", c.Label(), o.Fired, o.Met())
		}
		if o.BudgetRemaining != 1 {
			t.Errorf("%s: healthy control budget %v, want full (1.0)", c.Label(), o.BudgetRemaining)
		}
	}

	// The degraded cell: the burn-rate alert fires, and the critical-path
	// attribution names a transfer component — the observable story is
	// "restore tail burning budget, driven by the slow link", not just a
	// number over a threshold.
	un, ok := res.Cell(20, false)
	if !ok {
		t.Fatal("severity-20 unhedged cell missing")
	}
	o := un.SLO.Objectives[0]
	if o.Fired == 0 {
		t.Errorf("severity-20 unhedged: restore-p99 never fired (compliance %.3f)", o.Compliance)
	}
	if !un.SLO.Breached() {
		t.Error("severity-20 unhedged: report not marked breached")
	}
	if !strings.HasPrefix(o.Attribution, "xfer") {
		t.Errorf("severity-20 unhedged: attribution %q, want a transfer component", o.Attribution)
	}
	for _, a := range un.SLO.Alerts {
		t.Logf("alert: %s %s", a.Event, a.Detail())
	}
}
