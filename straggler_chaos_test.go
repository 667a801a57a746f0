package score_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"score"
)

// stragglerSchedules is the number of seeded gray-fault schedules the
// soak runs; raise it for a longer campaign (make chaos-straggler).
var stragglerSchedules = flag.Int("straggler.schedules", 25, "seeded gray schedules for TestStragglerChaosSoak")

// TestStragglerChaosSoak replays seeded random gray-fault schedules —
// slowdowns, jitter, stall windows: faults that never return an error,
// only time — against hedged clients on real stores. The contract is
// strictly stronger than the hard-fault soak's: gray faults destroy no
// data and every window eventually closes, so the flush chain must
// drain cleanly and EVERY restore must come back bit-exact, no matter
// which leg of the hedge race served it or how many stalled flushes
// were rerouted mid-air. The virtual clock panics on deadlock, so a
// hedge coordinator or abandoned stall leg that wedges fails loudly.
func TestStragglerChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 8
	var rerouted, hedged int64
	for i := 0; i < *stragglerSchedules; i++ {
		seed := int64(9000 + i)
		t.Run(fmt.Sprintf("schedule-%d", seed), func(t *testing.T) {
			r, h := runStragglerSchedule(t, seed, n)
			rerouted += r
			hedged += h
		})
	}
	// Both directions of the deadline race must have run: a soak whose
	// schedules never reroute a flush or hedge a restore checks nothing of
	// the race.
	t.Logf("%d schedules: %d stalled flushes rerouted, %d restore hedges launched",
		*stragglerSchedules, rerouted, hedged)
	if rerouted == 0 || hedged == 0 {
		t.Errorf("the soak must exercise both races: %d reroutes, %d hedges", rerouted, hedged)
	}
	// Hedge losers and abandoned stall legs run under background
	// waitgroups; give them time to unwind, then check for leaks.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Errorf("goroutine leak: %d before soak, %d after", baseline, g)
	}
}

// randomGrayRules derives one gray schedule from a seeded source. Every
// rule is latency-only — no rule here can surface as an operation
// error. The PFS link keeps the hard-fault soak's convention: it is the
// floor of the degradation ladder and the hedge race's deepest leg, so
// it is never degraded below nominal — slowing it would only lengthen
// the run, but keeping it clean makes "the hedge always has a healthy
// replica to race" part of what the soak exercises.
func randomGrayRules(r *rand.Rand) []score.FaultRule {
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+r.Intn(hi-lo+1)) * time.Millisecond
	}
	var rules []score.FaultRule
	if r.Float64() < 0.7 { // the headline straggler: SSD path crawls
		after := ms(0, 6)
		scale := 0.02 + 0.1*r.Float64() // 10×–50× slowdown
		if r.Float64() < 0.5 {
			rules = append(rules, score.SlowLink(score.FaultNVMe, scale, after, after+ms(2, 10)))
		} else {
			rules = append(rules, score.SlowLink(score.FaultNVMe, scale, after, after+time.Hour))
		}
	}
	if r.Float64() < 0.5 { // tail noise on the SSD path
		rules = append(rules, score.JitterOps(score.FaultNVMe, ms(1, 4), ms(0, 4), ms(5, 20)))
	}
	if r.Float64() < 0.4 { // bounded stall: ops pinned until the window closes
		after := ms(1, 6)
		rules = append(rules, score.StallWindow(score.FaultNVMe, after, after+ms(1, 6)))
	}
	if r.Float64() < 0.3 { // the partner leg crawls too
		rules = append(rules, score.SlowLink(score.FaultPartner, 0.05+0.1*r.Float64(), ms(0, 4), ms(6, 20)))
	}
	if r.Float64() < 0.3 { // interconnect jitter under everything
		rules = append(rules, score.JitterOps(score.FaultPCIe, ms(1, 2), 0, ms(8, 20)))
	}
	return rules
}

// runStragglerSchedule writes n versions under one seeded gray schedule,
// restores them from the cache tiers, then restarts from a fresh client
// over the same stores and restores them again from the deep tiers, where
// each restore races the SSD replica against the PFS one. It returns the
// stalled flushes rerouted and the restore hedges launched.
func runStragglerSchedule(t *testing.T, seed int64, n int) (rerouted, hedged int64) {
	ssdDir, pfsDir := t.TempDir(), t.TempDir()
	r := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, n)
	for v := range payloads {
		b := make([]byte, 64*1024)
		r.Read(b)
		payloads[v] = b
	}
	rules := randomGrayRules(r)

	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(seed, rules...)
	open := func() *score.Client {
		c, err := sim.NewClient(0, 0,
			score.WithGPUCache(256<<10), score.WithHostCache(1<<20),
			score.WithStore(ssdDir), score.WithPFSStore(pfsDir), score.WithPersistToPFS(),
			score.WithHedgedRestores(),
			score.WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// restoreAll restores every version newest-first and checks the bytes.
	restoreAll := func(c *score.Client, phase string) {
		for v := n - 1; v >= 0; v-- {
			got, err := c.Restart(int64(v))
			if err != nil {
				t.Errorf("%s restart %d failed — gray faults lose no data: %v", phase, v, err)
				continue
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Errorf("%s restart %d: hedge race returned wrong bytes", phase, v)
			}
		}
		if err := c.CheckMetricsInvariants(false); err != nil {
			t.Errorf("metrics invariants after %s restores: %v", phase, err)
		}
		st := c.Stats()
		if st.HedgeWins > st.HedgesLaunched {
			t.Errorf("%s: HedgeWins %d > HedgesLaunched %d", phase, st.HedgeWins, st.HedgesLaunched)
		}
		if st.StallsRerouted > st.StallsDetected {
			t.Errorf("%s: StallsRerouted %d > StallsDetected %d", phase, st.StallsRerouted, st.StallsDetected)
		}
		rerouted += st.StallsRerouted
		hedged += st.HedgesLaunched
	}
	sim.Run(func() {
		c := open()
		for v := 0; v < n; v++ {
			if err := c.Checkpoint(int64(v), payloads[v]); err != nil {
				t.Fatalf("checkpoint %d failed under a latency-only schedule: %v", v, err)
			}
			c.Compute(time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatalf("flush chain failed under a latency-only schedule: %v", err)
		}
		if err := c.CheckMetricsInvariants(true); err != nil {
			t.Errorf("metrics invariants after drain: %v", err)
		}
		restoreAll(c, "cached")
		c.Close()

		c = open()
		defer c.Close()
		if got := len(c.RecoveredVersions()); got != n {
			t.Fatalf("restarted client recovered %d versions, want %d", got, n)
		}
		restoreAll(c, "restarted")
	})
	return rerouted, hedged
}
