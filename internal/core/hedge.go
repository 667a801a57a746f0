package core

import (
	"fmt"
	"sync"
	"time"

	"score/internal/metrics"
	"score/internal/simclock"
	"score/internal/trace"
)

// This file implements hedged deep reads, the restore half of the
// gray-failure machinery (Params.Hedge): readDeep's sequential walk over
// the deep-tier table becomes a race. The fastest replica's leg
// starts alone; if it runs past its adaptive deadline — the health
// estimator's median-with-headroom cost model for its link class —
// without failing, the next-deeper
// replica's leg launches concurrently. First success wins, the race is
// decided exactly once, and losers finish in the background charged as
// wasted bytes. A leg that fails outright falls back immediately, like
// the sequential ladder, degrading its tier so later operations skip it.
//
// Correctness of "never wrong bytes" is structural: deep-read legs only
// charge simulated link time — the checkpoint's payload is immutable and
// replica state is mutated by the caller only after the race returns, so
// a losing leg has nothing it could corrupt.

// hedgeRace runs legs (fastest first) as a hedged race and returns the
// first success, or the deepest leg's error once every leg has failed.
// The winner's transfer window is charged to its component on att; the
// winning tier heals; a deeper-than-first winner counts as a fallback
// read exactly once per race (mirroring the sequential ladder's
// accounting). Legs still in flight when the race is decided keep
// running in the background under hedgeWG and count their bytes as
// wasted on completion — they can no longer affect the result.
func (c *Client) hedgeRace(ck *checkpoint, att *attrib, legs []*deepTier, fused bool) error {
	type raceState struct {
		mu      sync.Mutex
		cond    simclock.Cond
		done    []bool
		errs    []error
		decided bool
		winner  int
	}
	hs := &raceState{done: make([]bool, len(legs)), errs: make([]error, len(legs)), winner: -1}
	hs.cond = c.clk.NewCond(&hs.mu)

	start := c.clk.Now()
	legStart := make([]time.Duration, len(legs))
	byHedge := make([]bool, len(legs)) // launched by deadline, not by failure
	handled := make([]bool, len(legs)) // failure side effects applied
	launched := 0
	hedgedAny := false
	fellBack := false

	// launch starts the next leg; the caller holds hs.mu.
	launch := func(hedge bool) {
		i := launched
		launched++
		legStart[i] = c.clk.Now()
		byHedge[i] = hedge
		c.hedgeWG.Add(1)
		c.clk.Go(func() {
			defer c.hedgeWG.Done()
			// No attribution inside the leg: only the winner's window is
			// charged, once the race is decided.
			err := c.readLeg(ck, nil, legs[i], fused)
			if err == nil {
				c.observeHealth(legs[i], ck.size, c.clk.Now()-legStart[i])
			}
			hs.mu.Lock()
			hs.done[i], hs.errs[i] = true, err
			if hs.decided && err == nil && i != hs.winner {
				// A loser finishing after the decision moved its bytes
				// for nothing.
				c.rec.HedgeWasted(ck.size)
			}
			hs.cond.Broadcast()
			hs.mu.Unlock()
		})
	}

	hs.mu.Lock()
	defer hs.mu.Unlock()
	launch(false)
	for {
		winner, running := -1, 0
		var shutdownErr error
		var degrade []Tier
		for i := 0; i < launched; i++ {
			switch {
			case !hs.done[i]:
				running++
			case hs.errs[i] == nil:
				if winner < 0 {
					winner = i
				}
			case isShutdownErr(hs.errs[i]):
				if shutdownErr == nil {
					shutdownErr = hs.errs[i]
				}
			case !handled[i]:
				handled[i] = true
				if i < len(legs)-1 {
					// A deeper replica exists: take the failed tier out
					// of rotation, as the sequential ladder would.
					degrade = append(degrade, legs[i].tier)
				}
			}
		}
		switch {
		case winner >= 0:
			hs.decided, hs.winner = true, winner
			now := c.clk.Now()
			c.mark(att, legs[winner].comp)
			c.healTier(legs[winner].tier)
			if winner > 0 && !fellBack {
				// Served from a deeper tier while a shallower replica
				// existed — the hedged form of a fallback read.
				c.rec.FallbackRead()
			}
			if byHedge[winner] {
				c.rec.HedgeWin()
			}
			if hedgedAny {
				c.rec.ObserveDuration(metrics.HistHedgeWait, now-start)
			}
			return nil
		case shutdownErr != nil:
			hs.decided = true
			return shutdownErr
		case len(degrade) > 0:
			// Apply side effects outside hs.mu, then rescan: legs may
			// have completed while we were unlocked.
			hs.mu.Unlock()
			for _, t := range degrade {
				c.degradeTier(t)
			}
			hs.mu.Lock()
		case running == 0 && launched == len(legs):
			// Every leg failed; the deepest error is the definitive one
			// (it already wraps ErrTierIO through retryIOAttr).
			hs.decided = true
			return hs.errs[launched-1]
		case running == 0:
			// The whole launched frontier failed before any deadline:
			// fall back to the next leg immediately.
			if !fellBack {
				fellBack = true
				c.rec.FallbackRead()
			}
			launch(false)
		case launched < len(legs):
			// A leg is still running and a deeper replica remains: wait
			// out the deepest launched leg's adaptive deadline, then
			// hedge.
			deep := launched - 1
			d := c.health.deadline(legs[deep].label, ck.size)
			if d == 0 {
				// No calibration for this link class yet — no deadline to
				// arm. Wait for the leg to resolve; a failure still falls
				// back immediately through the frontier-failed case.
				hs.cond.Wait()
				break
			}
			dl := legStart[deep] + d
			if wait := dl - c.clk.Now(); wait > 0 {
				hs.cond.WaitTimeout(wait)
				break
			}
			next := legs[launched]
			hedgedAny = true
			c.rec.HedgeLaunched()
			c.lifecycle(ck.id, trace.LHedged, next.label,
				fmt.Sprintf("%s leg past its %v deadline", legs[deep].label, dl-legStart[deep]))
			launch(true)
		default:
			// Deepest leg is racing stragglers; nothing left to launch.
			hs.cond.Wait()
		}
	}
}
