package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"score/internal/ckptstore"
	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/simclock"
)

// legOutcome is what the first leg the ladder (or the first write a flush
// route) attempts does; every later leg succeeds.
type legOutcome int

const (
	legSucceeds  legOutcome = iota
	legFails                // through every retry
	legShutdown             // the rank dies under it
	legLandsDead            // the rank dies as its bytes land (flush routes only)
)

func (o legOutcome) String() string {
	return [...]string{"succeeds", "fails", "shutdown", "lands-dead"}[o]
}

// ladderWant is what one deep read must do.
type ladderWant struct {
	attempts     []Tier // legs attempted, in order
	fallbacks    int64
	degraded     []Tier // the degraded set afterwards
	degradations int64  // tiers newly degraded by the read
	recoveries   int64  // tiers healed by the read
	err          error  // nil, ErrTierIO or ErrKilled
}

// ladderRule is the rule of the read ladder, written out independently of
// readDeep: walk the holders fastest first;
//
//  1. skip a degraded tier while a deeper one holds the data;
//  2. count a fallback read for every attempt on a holder that is not the
//     shallowest — a shallower copy was skipped or failed;
//  3. a success ends the walk and heals its tier; a failure that is not a
//     shutdown degrades the tier and falls to the next holder, unless this
//     was the deepest holder, whose error (like a shutdown's) is the
//     read's.
func ladderRule(held, degraded []Tier, first legOutcome) ladderWant {
	w := ladderWant{degraded: slices.Clone(degraded)}
	for i, t := range held {
		deeper := i < len(held)-1
		if deeper && slices.Contains(w.degraded, t) { // 1
			continue
		}
		w.attempts = append(w.attempts, t)
		if i > 0 { // 2
			w.fallbacks++
		}
		outcome := legSucceeds
		if len(w.attempts) == 1 {
			outcome = first
		}
		switch { // 3
		case outcome == legSucceeds:
			if j := slices.Index(w.degraded, t); j >= 0 {
				w.degraded = slices.Delete(w.degraded, j, j+1)
				w.recoveries++
			}
			return w
		case outcome == legShutdown:
			w.err = ErrKilled
			return w
		case !deeper:
			w.err = ErrTierIO
			return w
		}
		w.degraded = append(w.degraded, t)
		slices.Sort(w.degraded)
		w.degradations++
	}
	panic("ladderRule: no holder")
}

// ladderRig is a client with all three deep tiers configured and a
// recorder on each tier's source link.
type ladderRig struct {
	*testRig
	src map[Tier]*fabric.Link // the first link a read of the tier crosses

	mu      sync.Mutex
	touched []Tier // source links crossed, consecutive repeats collapsed
}

func newLadderRig(t *testing.T, clk *simclock.Virtual, chunk int64, hedge bool) *ladderRig {
	t.Helper()
	partnerStore, _, err := ckptstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lnic := fabric.NewLink(clk, "local.nic", 50*MB, 0)
	pnic := fabric.NewLink(clk, "partner.nic", 50*MB, 0)
	pnvme := fabric.NewLink(clk, "partner.nvme", 25*MB, 0)
	lr := &ladderRig{}
	lr.testRig = newRig(t, clk, func(p *Params) {
		p.PartnerStore = partnerStore
		p.PartnerPath = fabric.Path{lnic, pnic, pnvme}
		p.ChunkSize = chunk
		p.Hedge = hedge
		// Two quick attempts per leg; degradations stay put so the gate
		// depends on the marks alone.
		p.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond,
			MaxBackoff: time.Microsecond, ProbeInterval: -1}
	})
	lr.src = map[Tier]*fabric.Link{
		TierSSD: lr.cluster.Nodes[0].NVMe, TierPartner: pnvme, TierPFS: lr.cluster.PFS,
	}
	return lr
}

// arm installs the recorders and gives tier's leg the outcome.
func (lr *ladderRig) arm(tier Tier, outcome legOutcome) {
	for t, l := range lr.src {
		l.SetInterceptor(func(string, int64) fabric.FaultDecision {
			lr.mu.Lock()
			if n := len(lr.touched); n == 0 || lr.touched[n-1] != t {
				lr.touched = append(lr.touched, t)
			}
			lr.mu.Unlock()
			if t != tier || outcome == legSucceeds {
				return fabric.FaultDecision{}
			}
			if outcome == legShutdown {
				lr.client.markKilled()
			}
			return fabric.FaultDecision{Err: errors.New("injected")}
		})
	}
}

// holding fabricates a version whose only copies are FLUSHED replicas on
// the given deep tiers, as recovery from the stores would.
func (lr *ladderRig) holding(held []Tier) *checkpoint {
	ck := &checkpoint{id: 7, size: MB, pay: pay(MB)}
	for _, t := range held {
		rep := lr.client.newReplica(t)
		for _, s := range []lifecycle.State{lifecycle.WriteInProgress, lifecycle.WriteComplete, lifecycle.Flushed} {
			rep.fsm.MustTo(s)
		}
		ck.replicas[t] = rep
	}
	lr.client.ckpts[ck.id] = ck
	return ck
}

func subsets(of []Tier) [][]Tier {
	var out [][]Tier
	for mask := 0; mask < 1<<len(of); mask++ {
		var s []Tier
		for i, t := range of {
			if mask&(1<<i) != 0 {
				s = append(s, t)
			}
		}
		out = append(out, s)
	}
	return out
}

// TestReadLadderAgainstTheRule drives readDeep through every holder set ×
// degraded set × {plain, fused chunked stream onto the GPU} × first-leg
// outcome and checks it against ladderRule; then repeats the read hedged,
// with no latency samples so no deadline ever fires, and requires the
// same legs, winner, degraded set and error.
func TestReadLadderAgainstTheRule(t *testing.T) {
	deep := []Tier{TierSSD, TierPartner, TierPFS}
	for _, held := range subsets(deep)[1:] {
		for _, degraded := range subsets(deep) {
			for _, fused := range []bool{false, true} {
				for _, first := range []legOutcome{legSucceeds, legFails, legShutdown} {
					name := fmt.Sprintf("held=%v/degraded=%v/fused=%v/first-%v", held, degraded, fused, first)
					t.Run(name, func(t *testing.T) {
						want := ladderRule(held, degraded, first)
						for _, hedge := range []bool{false, true} {
							checkLadder(t, held, degraded, fused, first, hedge, want)
						}
					})
				}
			}
		}
	}
}

func checkLadder(t *testing.T, held, degraded []Tier, fused bool, first legOutcome, hedge bool, want ladderWant) {
	t.Helper()
	run(t, func(clk *simclock.Virtual) {
		var chunk int64
		if fused {
			chunk = MB / 4
		}
		lr := newLadderRig(t, clk, chunk, hedge)
		c := lr.client
		defer c.Close()
		for _, tier := range degraded {
			c.degradeTier(tier)
		}
		before := c.Metrics().Snapshot()
		lr.arm(want.attempts[0], first)

		err := c.readDeep(lr.holding(held), nil, fused)

		switch {
		case want.err == nil && err != nil:
			t.Errorf("hedge=%v: read failed: %v", hedge, err)
		case want.err != nil && !errors.Is(err, want.err):
			t.Errorf("hedge=%v: err = %v, want %v", hedge, err, want.err)
		}
		if !slices.Equal(lr.touched, want.attempts) {
			t.Errorf("hedge=%v: legs attempted %v, want %v", hedge, lr.touched, want.attempts)
		}
		if got := c.DegradedTiers(); !slices.Equal(got, want.degraded) {
			t.Errorf("hedge=%v: degraded afterwards %v, want %v", hedge, got, want.degraded)
		}
		if hedge {
			// The race keeps its own books on fallbacks (once per race, by
			// winner); legs, winner, degraded set and error are the contract.
			return
		}
		after := c.Metrics().Snapshot()
		if got := after.FallbackReads - before.FallbackReads; got != want.fallbacks {
			t.Errorf("FallbackReads = %d, want %d", got, want.fallbacks)
		}
		if got := after.TotalDegradations() - before.TotalDegradations(); got != want.degradations {
			t.Errorf("Degradations = %d, want %d", got, want.degradations)
		}
		if got := after.TotalTierRecoveries() - before.TotalTierRecoveries(); got != want.recoveries {
			t.Errorf("TierRecoveries = %d, want %d", got, want.recoveries)
		}
		if first != legSucceeds {
			// The failed leg retried under its own label: the tier's for a
			// plain crossing, the combined one for a fused stream.
			d := c.deepOf(want.attempts[0])
			label := d.label
			if fused {
				label = d.fused
			}
			if got := after.Retries[label]; got != 1 {
				t.Errorf("Retries[%q] = %d, want 1 (all retries: %v)", label, got, after.Retries)
			}
		}
	})
}

// TestPartnerReadCrossesThePathInReverse pins the one reversal the table
// keeps: a partner replica is written local NIC → partner NIC → partner
// NVMe and read back the other way.
func TestPartnerReadCrossesThePathInReverse(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		lr := newLadderRig(t, clk, 0, false)
		defer lr.client.Close()
		var crossed []string
		for _, l := range lr.client.p.PartnerPath {
			l.SetInterceptor(func(name string, _ int64) fabric.FaultDecision {
				crossed = append(crossed, name)
				return fabric.FaultDecision{}
			})
		}
		if err := lr.client.readDeep(lr.holding([]Tier{TierPartner}), nil, false); err != nil {
			t.Fatal(err)
		}
		if want := []string{"partner.nvme", "partner.nic", "local.nic"}; !slices.Equal(crossed, want) {
			t.Errorf("partner read crossed %v, want %v", crossed, want)
		}
	})
}
