package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"score/internal/ckptstore"
	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/simclock"
)

// flushSource is where a version enters the flush chain.
type flushSource int

const (
	fromD2H  flushSource = iota // a T_D2H job: the version landed in the GPU cache
	fromH2F                     // a T_H2F job: the version's host copy landed
	fromSync                    // a synchronous flush: too large for the GPU cache
)

func (s flushSource) String() string { return [...]string{"d2h", "h2f", "sync"}[s] }

// pfsSetup is how the client has the PFS configured.
type pfsSetup int

const (
	pfsNone     pfsSetup = iota
	pfsFailover          // a PFS link: a flush may fail over to it
	pfsPersist           // and PersistToPFS: an SSD landing writes it too
)

func (s pfsSetup) String() string { return [...]string{"none", "failover", "persist"}[s] }

// flushCase is one combination a flush route is driven through.
type flushCase struct {
	src       flushSource
	direct    bool   // GPUDirect storage
	degraded  []Tier // marked before the flush, ⊆ {host, ssd}
	probation bool   // the marks' quarantine has lapsed: the next write probes the tier
	pfs       pfsSetup
	partner   bool
	first     legOutcome // the first write the route attempts; every later one succeeds
}

// fateUndecided: no fate is credited — a synchronous flush rejected its
// version, or a dead rank left it to the kill sweep.
const fateUndecided ckptFate = -1

// flushWant is what one flush route must do.
type flushWant struct {
	written      []Tier // tiers whose writes crossed a link, in order
	degraded     []Tier // the marked set afterwards
	degradations map[string]int64
	recoveries   map[string]int64
	aborts       int64
	fate         ckptFate
	err          error // Checkpoint's error, else WaitFlush's: nil, ErrTierIO or ErrKilled
}

// flushRule is the rule of the flush chain, written out independently of
// the code:
//
//  1. T_D2H and the synchronous flush copy GPU→host unless GPUDirect is on
//     or the host is marked and still quarantined; T_H2F starts from the
//     host copy. A landed host copy hands the version to T_H2F (the
//     synchronous flush returns). A failed one degrades the host and the
//     version goes deep from the GPU; if the rank died under it, T_D2H
//     aborts the flush while the synchronous flush goes deep anyway.
//  2. Deep is the SSD unless it is marked and still quarantined; the PFS
//     otherwise, or when the SSD write fails for a reason other than a
//     death, which degrades the SSD. No PFS, or a failed PFS write, fails
//     the route; a write never degrades the PFS.
//  3. A write that lands heals its tier. After an SSD landing the partner
//     copy and, with PersistToPFS, the PFS are written too.
//  4. A dead rank crosses nothing more, and a durable landing on a dead
//     rank is none: the kill gate backs it out. A host copy that lands on
//     a dead rank stays, but T_H2F never starts.
//  5. The first durable landing makes the version durable. A T_D2H or
//     T_H2F route that fails aborts the flush: the version is lost, and
//     WaitFlush reports only a death. A synchronous flush that fails
//     returns its error from Checkpoint and credits no fate.
func flushRule(fc flushCase) flushWant {
	w := flushWant{degraded: slices.Clone(fc.degraded), fate: fateUndecided,
		degradations: map[string]int64{}, recoveries: map[string]int64{}}
	dead := false
	skip := func(t Tier) bool { return !fc.probation && slices.Contains(w.degraded, t) }
	// write attempts t and reports whether its bytes landed.
	write := func(t Tier) bool {
		if dead { // 4
			return false
		}
		outcome := legSucceeds
		if len(w.written) == 0 {
			outcome = fc.first
		}
		w.written = append(w.written, t)
		switch outcome {
		case legFails:
			if t != TierPFS && !slices.Contains(w.degraded, t) { // 1, 2
				w.degraded = append(w.degraded, t)
				slices.Sort(w.degraded)
				w.degradations[t.String()]++
			}
			return false
		case legShutdown:
			dead = true
			return false
		case legLandsDead:
			dead = true
			if t != TierHost { // 4
				return false
			}
		}
		if j := slices.Index(w.degraded, t); j >= 0 { // 3
			w.degraded = slices.Delete(w.degraded, j, j+1)
			w.recoveries[t.String()]++
		}
		return true
	}
	// deep lands the version on its first durable tier (2, 3).
	deep := func() error {
		if !skip(TierSSD) {
			if write(TierSSD) {
				if fc.partner {
					write(TierPartner)
				}
				if fc.pfs == pfsPersist {
					write(TierPFS)
				}
				return nil
			}
			if dead {
				return ErrKilled
			}
		}
		switch {
		case fc.pfs == pfsNone:
			return ErrTierIO
		case write(TierPFS):
			return nil
		case dead:
			return ErrKilled
		}
		return ErrTierIO
	}
	// async settles a T_D2H or T_H2F route (5).
	async := func(err error) flushWant {
		switch {
		case err == nil:
			w.fate = fateDurable
		case dead:
			w.aborts, w.fate, w.err = 1, fateLost, ErrKilled
		default:
			w.aborts, w.fate = 1, fateLost
		}
		return w
	}

	if fc.src == fromH2F {
		return async(deep())
	}
	if !fc.direct && !skip(TierHost) { // 1
		switch landed := write(TierHost); {
		case landed && dead: // 4
			w.err = ErrKilled
			return w
		case landed:
			return async(deep())
		case dead && fc.src == fromD2H:
			return async(ErrKilled)
		}
	}
	err := deep()
	switch {
	case fc.src == fromD2H:
		return async(err)
	case err != nil:
		w.err = err
	default:
		w.fate = fateDurable
	}
	return w
}

// TestFlushRouteAgainstTheRule drives one version through every flush
// source × GPUDirect × degraded set (quarantined or in probation) × PFS
// setup × partner copy × outcome of the first write, and checks the tiers
// written, the degradations and recoveries per tier, the flush aborts, the
// fate and the error against flushRule; then repeats the flush hedged,
// with no latency samples so no deadline ever fires, and requires the
// same of the deadline race the SSD write runs on.
//
// Each of these mutations, tried one at a time, fails it: flushDeep not
// falling through from a failed SSD write to the PFS; settleDeep degrading
// the SSD on a shutdown error; landOnHost not degrading the host before it
// returns hostBypassed; settleDeep crediting the durable fate before its
// kill gate; flushedDeep running the breadth legs for the PFS row;
// raceDurable leaving a failed write leg's record in place.
func TestFlushRouteAgainstTheRule(t *testing.T) {
	partnerStore, _, err := ckptstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	marks := subsets([]Tier{TierHost, TierSSD})
	for _, src := range []flushSource{fromD2H, fromH2F, fromSync} {
		for _, direct := range []bool{false, true} {
			for _, degraded := range marks {
				for _, probation := range []bool{false, true} {
					if probation && len(degraded) == 0 {
						continue
					}
					for _, pfs := range []pfsSetup{pfsNone, pfsFailover, pfsPersist} {
						for _, partner := range []bool{false, true} {
							for _, first := range []legOutcome{legSucceeds, legFails, legShutdown, legLandsDead} {
								fc := flushCase{src, direct, degraded, probation, pfs, partner, first}
								name := fmt.Sprintf("%v/direct=%v/degraded=%v/probation=%v/pfs=%v/partner=%v/first-%v",
									src, direct, degraded, probation, pfs, partner, first)
								t.Run(name, func(t *testing.T) {
									want := flushRule(fc)
									for _, hedge := range []bool{false, true} {
										checkFlush(t, fc, hedge, want, partnerStore)
									}
								})
							}
						}
					}
				}
			}
		}
	}
}

func checkFlush(t *testing.T, fc flushCase, hedge bool, want flushWant, partnerStore *ckptstore.Store) {
	t.Helper()
	run(t, func(clk *simclock.Virtual) {
		var partnerPath fabric.Path
		if fc.partner {
			partnerPath = fabric.Path{
				fabric.NewLink(clk, "local.nic", 50*MB, 0),
				fabric.NewLink(clk, "partner.nic", 50*MB, 0),
				fabric.NewLink(clk, "partner.nvme", 25*MB, 0),
			}
		}
		r := newRig(t, clk, func(p *Params) {
			p.GPUDirectStorage = fc.direct
			p.Hedge = hedge
			// Two quick attempts per write. A mark stays until a write heals
			// it, or lapses into probation before the flush starts.
			p.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond,
				MaxBackoff: time.Microsecond, ProbeInterval: -1}
			if fc.probation {
				p.Retry.ProbeInterval = time.Microsecond
			}
			switch fc.pfs {
			case pfsNone:
				p.PFS = nil
			case pfsPersist:
				p.PersistToPFS = true
			}
			if fc.partner {
				p.PartnerStore, p.PartnerPath = partnerStore, partnerPath
			}
		})
		c := r.client
		for _, tier := range fc.degraded {
			c.degradeTier(tier)
		}
		clk.Sleep(time.Millisecond)
		before := c.Metrics().Snapshot()

		// Every link a flush crosses records the tier being written — the one
		// whose record is WRITE_IN_PROGRESS — and, while that is the route's
		// first write, applies the case's outcome. A write dies as it lands
		// on the link that completes it.
		var written []Tier
		intercept := func(l *fabric.Link, completes Tier) {
			l.SetInterceptor(func(string, int64) fabric.FaultDecision {
				tier := writingTier(t, c)
				if n := len(written); n == 0 || written[n-1] != tier {
					written = append(written, tier)
				}
				if len(written) > 1 {
					return fabric.FaultDecision{}
				}
				switch fc.first {
				case legFails:
					return fabric.FaultDecision{Err: errors.New("injected")}
				case legShutdown:
					c.markKilled()
					return fabric.FaultDecision{Err: errors.New("injected")}
				case legLandsDead:
					if tier == completes {
						c.markKilled()
					}
				}
				return fabric.FaultDecision{}
			})
		}
		intercept(r.gpu.PCIeLink(), TierHost)
		intercept(c.p.NVMe, TierSSD)
		if c.p.PFS != nil {
			intercept(c.p.PFS, TierPFS)
		}
		for i, l := range partnerPath {
			completes := Tier(-1)
			if i == len(partnerPath)-1 {
				completes = TierPartner
			}
			intercept(l, completes)
		}

		var err error
		switch fc.src {
		case fromD2H:
			err = c.Checkpoint(0, pay(MB))
		case fromH2F:
			queueH2F(t, c, MB)
		case fromSync:
			err = c.Checkpoint(0, pay(8*MB)) // twice the GPU cache
		}
		if err == nil {
			err = c.WaitFlush()
		}
		c.Close() // joins the flushers: every decision is made
		after := c.Metrics().Snapshot()

		switch {
		case want.err == nil && err != nil:
			t.Errorf("hedge=%v: error %v, want none", hedge, err)
		case want.err != nil && !errors.Is(err, want.err):
			t.Errorf("hedge=%v: error %v, want %v", hedge, err, want.err)
		}
		if !slices.Equal(written, want.written) {
			t.Errorf("hedge=%v: tiers written %v, want %v", hedge, written, want.written)
		}
		if got := c.DegradedTiers(); !slices.Equal(got, want.degraded) {
			t.Errorf("hedge=%v: degraded afterwards %v, want %v", hedge, got, want.degraded)
		}
		for tier := TierGPU; tier <= TierPFS; tier++ {
			n := tier.String()
			if got := after.Degradations[n] - before.Degradations[n]; got != want.degradations[n] {
				t.Errorf("hedge=%v: Degradations[%s] = %d, want %d", hedge, n, got, want.degradations[n])
			}
			if got := after.TierRecoveries[n] - before.TierRecoveries[n]; got != want.recoveries[n] {
				t.Errorf("hedge=%v: TierRecoveries[%s] = %d, want %d", hedge, n, got, want.recoveries[n])
			}
		}
		if got := after.FlushAborts - before.FlushAborts; got != want.aborts {
			t.Errorf("hedge=%v: FlushAborts = %d, want %d", hedge, got, want.aborts)
		}
		fate := fateUndecided
		switch {
		case after.DurableBytes > before.DurableBytes:
			fate = fateDurable
		case after.LostBytes > before.LostBytes:
			fate = fateLost
		}
		if fate != want.fate {
			t.Errorf("hedge=%v: fate %d, want %d (durable %d, lost %d, undecided %d)", hedge, fate, want.fate,
				fateDurable, fateLost, fateUndecided)
		}
	})
}

// writingTier returns the tier whose record of version 0 is being written.
func writingTier(t *testing.T, c *Client) Tier {
	if ck := c.ckpts[0]; ck != nil {
		for tier, rep := range ck.replicas {
			if rep != nil && rep.fsm.State() == lifecycle.WriteInProgress {
				return Tier(tier)
			}
		}
	}
	t.Errorf("a link was crossed with no write in progress")
	return -1
}

// queueH2F hands T_H2F version 0 with its host copy landed, as T_D2H
// would, without a GPU stage of its own.
func queueH2F(t *testing.T, c *Client, size int64) {
	ck := &checkpoint{id: 0, size: size, pay: pay(size)}
	rep := c.newReplica(TierHost)
	c.ckpts[ck.id] = ck
	c.setReplica(ck, TierHost, rep)
	if _, err := c.hstC.Reserve(c.hostKey(ck.id), size); err != nil {
		t.Fatal(err)
	}
	c.mustTransition(ck, rep, lifecycle.WriteInProgress)
	c.mustTransition(ck, rep, lifecycle.WriteComplete)
	c.enqueueH2F(ck)
}
