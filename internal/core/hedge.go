package core

import (
	"fmt"
	"time"

	"score/internal/metrics"
	"score/internal/simclock"
	"score/internal/trace"
)

// This file implements the deadline race, the one gray-failure mechanism
// (Params.Hedge) for both directions a version crosses the deep tiers: a
// restore races readLeg over the rows holding it (walkDeep), a flush
// races writeDeep onto the SSD and PFS rows (raceDurable). The fastest
// row's leg starts alone. If it runs past its adaptive deadline — the
// health estimator's median-with-headroom cost for its link class —
// without failing, the next row's leg launches concurrently; if it fails,
// the next row's leg launches at once, as in the sequential ladders, and
// the leg itself applies its ladder's failure rule. The first leg to
// succeed wins, the race is decided once, and legs still running finish
// in the background under hedgeWG. A leg only charges simulated link
// time and stores an immutable payload, so no leg can corrupt another's.

// raceLeg is one leg of a race: its row, when and why it launched, and
// how it ended.
type raceLeg struct {
	*deepTier
	start  time.Duration
	hedged bool // launched past a deadline, not by a failure
	done   bool
	err    error
}

// raceDir is what differs between the two directions a race runs in.
type raceDir struct {
	// restore picks the books. A restore's deadline launch records
	// HedgesLaunched and LHedged; its decision heals the winner's tier and
	// records HedgeWins, HistHedgeWait and, for a deeper winner, one
	// FallbackRead. A flush's records StallsDetected and LStalled, and its
	// caller settles the winner.
	restore bool
	open    func(l *raceLeg)       // as l launches, in the caller's task; may be nil
	run     func(l *raceLeg) error // l's body, in a task of its own; it charges no attribution
	late    func(l *raceLeg)       // l succeeded after the decision, in l's task
}

// hedgeRace runs legs over rows (fastest first) and returns the first leg
// to succeed, or the deepest leg's error once every leg has failed. The
// winner's transfer window is charged to its component on att.
func (c *Client) hedgeRace(ck *checkpoint, att *attrib, rows []*deepTier, dir raceDir) (*raceLeg, error) {
	cond := c.clk.NewCond(nil)
	legs := make([]raceLeg, 0, len(rows)) // never regrown: leg tasks hold pointers into it
	var winner *raceLeg
	var decided, hedgedAny, fellBack bool
	start := c.clk.Now()

	// launch starts the next row's leg.
	launch := func(hedged bool) {
		legs = append(legs, raceLeg{deepTier: rows[len(legs)], start: c.clk.Now(), hedged: hedged})
		l := &legs[len(legs)-1]
		if dir.open != nil {
			dir.open(l)
		}
		if c.hedgeWG == nil {
			c.hedgeWG = simclock.NewWaitGroup(c.clk)
		}
		c.hedgeWG.Add(1)
		c.clk.Go(func() {
			defer c.hedgeWG.Done()
			err := dir.run(l)
			l.done, l.err = true, err
			if err == nil && !decided {
				decided, winner = true, l
			}
			cond.Broadcast()
			if err == nil && winner != l {
				dir.late(l)
			}
		})
	}

	launch(false)
	for {
		if winner != nil {
			c.mark(att, winner.comp)
			if dir.restore {
				c.healTier(winner.tier)
				if winner != &legs[0] && !fellBack {
					// Served from a deeper tier while a shallower replica
					// existed — the hedged form of a fallback read.
					c.rec.FallbackRead()
				}
				if winner.hedged {
					c.rec.HedgeWin()
				}
				if hedgedAny {
					c.rec.ObserveDuration(metrics.HistHedgeWait, c.clk.Now()-start)
				}
			}
			return winner, nil
		}
		running := 0
		var shutdownErr error
		for i := range legs {
			switch l := &legs[i]; {
			case !l.done:
				running++
			case isShutdownErr(l.err) && shutdownErr == nil:
				shutdownErr = l.err
			}
		}
		switch {
		case shutdownErr != nil:
			decided = true
			return nil, shutdownErr
		case running == 0 && len(legs) == len(rows):
			// Every leg failed; the deepest error is the definitive one
			// (it already wraps ErrTierIO through retryIOAttr).
			decided = true
			return nil, legs[len(legs)-1].err
		case running == 0:
			// The whole launched frontier failed before any deadline:
			// fall back to the next row immediately.
			if !fellBack {
				fellBack = true
				if dir.restore {
					c.rec.FallbackRead()
				}
			}
			launch(false)
		case len(legs) < len(rows):
			// A leg is still running and a deeper row remains: wait out the
			// deepest launched leg's adaptive deadline, then launch the
			// next one.
			deep := &legs[len(legs)-1]
			d := deep.health.deadline(ck.size)
			if d == 0 {
				// No calibration for this link class yet — no deadline to
				// arm. Wait for the leg to resolve; a failure still falls
				// back immediately through the frontier-failed case.
				cond.Wait()
				break
			}
			if wait := deep.start + d - c.clk.Now(); wait > 0 {
				cond.WaitTimeout(wait)
				break
			}
			next := rows[len(legs)]
			hedgedAny = true
			kind, count := trace.LStalled, c.rec.StallDetected
			if dir.restore {
				kind, count = trace.LHedged, c.rec.HedgeLaunched
			}
			count()
			c.lifecycle(ck.id, kind, next.label, fmt.Sprintf("%s leg past its %v deadline", deep.label, d))
			launch(true)
		default:
			// The deepest row is racing stragglers; nothing left to launch.
			cond.Wait()
		}
	}
}
