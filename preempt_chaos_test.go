package score_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"score"
)

// preemptSchedules is the number of seeded preemption chaos schedules
// the drain soak runs; raise it for a longer campaign (make
// chaos-preempt).
var preemptSchedules = flag.Int("preempt.schedules", 25, "seeded schedules for TestPreemptChaosSoak")

// TestPreemptChaosSoak replays seeded schedules that land a preemption
// notice on a rank while random fault rules are active inside the drain
// window. The contract: every schedule ends with a complete drain
// manifest (no version left undecided, every abandonment carries an
// explicit reason — never a wedge, never a flush in flight past the
// reclaim), and a clean second process restores every version the
// manifest called durable bit-exactly. Goroutines must not leak across
// schedules.
func TestPreemptChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < *preemptSchedules; i++ {
		seed := int64(4000 + i)
		t.Run(fmt.Sprintf("schedule-%d", seed), func(t *testing.T) {
			runPreemptChaosSchedule(t, seed)
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Errorf("goroutine leak: %d before soak, %d after", baseline, g)
	}
}

// TestDrainNeverCallsAStorelessPFSDurable pins schedule 4064 of the soak in
// the default run: no PFS store, the SSD dead through the window, and the
// notice landing at the instant the first checkpoint begins. The flush
// chain used to fail over to the PFS link and the manifest called version 0
// durable on a tier that keeps no bytes; it must be abandoned with a reason.
// Before one task ran at a time this was a coin flip on which of the two
// same-instant tasks took the client's lock first.
func TestDrainNeverCallsAStorelessPFSDurable(t *testing.T) { runPreemptChaosSchedule(t, 4064) }

// drainWindowRules derives fault rules aimed at the drain window itself:
// the SSD link or store dying exactly while the triage is trying to use
// it. The PFS tier, when present, is never faulted so abandonments stay
// attributable to the schedule, not to a floor-less ladder.
func drainWindowRules(r *rand.Rand, noticeAt, grace time.Duration) []score.FaultRule {
	var rules []score.FaultRule
	if r.Float64() < 0.5 { // SSD outage overlapping the window
		start := noticeAt - time.Duration(r.Int63n(int64(time.Millisecond)))
		if start < 0 {
			start = 0
		}
		rules = append(rules, score.FailWindow(score.FaultNVMe, start, noticeAt+grace))
	}
	if r.Float64() < 0.4 {
		rules = append(rules, score.FailProb(score.FaultNVMe, 0.1+0.3*r.Float64()))
	}
	if r.Float64() < 0.4 {
		rules = append(rules, score.FailNth(score.FaultStoreWrite, int64(1+r.Intn(6))))
	}
	if r.Float64() < 0.4 { // PCIe slowdown: the D2H triage legs crawl
		rules = append(rules, score.SlowLink(score.FaultPCIe, 0.1+0.2*r.Float64(), 0, noticeAt+grace))
	}
	if r.Float64() < 0.3 {
		rules = append(rules, score.DelayOps(score.FaultHostAlloc, time.Duration(1+r.Intn(3))*time.Millisecond, 0, 0))
	}
	return rules
}

func runPreemptChaosSchedule(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	ssdDir := t.TempDir()
	pfsDir := ""
	if r.Float64() < 0.5 { // half the schedules have no PFS floor: the
		pfsDir = t.TempDir() // drain must fail open, not hunt for one
	}
	const n = 6
	payloads := make([][]byte, n)
	for v := range payloads {
		b := make([]byte, 128*1024)
		r.Read(b)
		payloads[v] = b
	}
	noticeAt := time.Duration(1+r.Intn(8)) * time.Millisecond
	grace := 500*time.Microsecond + time.Duration(r.Int63n(int64(20*time.Millisecond)))
	rules := drainWindowRules(r, noticeAt, grace)
	asyncHost := r.Float64() < 0.5

	// Life 1: write until the notice (or the reclaim) stops the rank,
	// then sleep past the kill and read the manifest the drain retained.
	sim1, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	inj := sim1.NewFaultInjector(seed, rules...)
	inj.AddPreempts(score.PreemptRank(0, 0, noticeAt, grace))
	var m score.DrainManifest
	var ok bool
	sim1.Run(func() {
		opts := []score.ClientOption{
			score.WithGPUCache(512 << 10), score.WithHostCache(1 << 20),
			score.WithStore(ssdDir), score.WithFaultInjector(inj),
		}
		if pfsDir != "" {
			opts = append(opts, score.WithPFSStore(pfsDir))
		}
		if asyncHost {
			opts = append(opts, score.WithAsyncHostInit())
		}
		c, err := sim1.NewClient(0, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for v := 0; v < n; v++ {
			if err := c.Checkpoint(int64(v), payloads[v]); err != nil {
				// Only the preemption may stop the writer: the drain gate
				// or the reclaim itself. Anything else is a wedge.
				if !errors.Is(err, score.ErrDraining) && !errors.Is(err, score.ErrKilled) {
					t.Fatalf("checkpoint %d failed outside the preemption path: %v", v, err)
				}
				break
			}
			c.Compute(time.Millisecond)
		}
		horizon := noticeAt + grace + 500*time.Millisecond
		if d := horizon - sim1.Clock().Now(); d > 0 {
			sim1.Clock().Sleep(d)
		}
		m, ok = c.DrainManifest()
		if err := c.CheckMetricsInvariants(false); err != nil {
			t.Errorf("metrics invariants after drain: %v", err)
		}
	})
	if !ok {
		t.Fatal("preemption notice produced no drain manifest")
	}
	if !m.Complete() {
		t.Fatalf("incomplete drain manifest: %s", m)
	}
	if m.DeadlineMet && (m.Finished > m.Deadline || m.Count(score.DrainAbandoned) != 0) {
		t.Fatalf("DeadlineMet but finished %v > deadline %v or %d abandoned",
			m.Finished, m.Deadline, m.Count(score.DrainAbandoned))
	}
	durable := map[int64][]byte{}
	for _, e := range m.Entries {
		switch e.Outcome {
		case score.DrainAlreadyDurable, score.DrainFlushed:
			if e.Tier == "" {
				t.Errorf("version %d durable with no tier named", e.Version)
			}
			durable[e.Version] = payloads[e.Version]
		case score.DrainAbandoned:
			if e.Reason == "" {
				t.Errorf("version %d abandoned with no reason", e.Version)
			}
		}
	}

	// Life 2: a clean process on the surviving stores. Every version the
	// manifest called durable must come back bit-exact; anything else
	// that happens to be recoverable must be bit-exact too — an
	// abandoned version may only be lost, never wrong.
	sim2, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run(func() {
		opts := []score.ClientOption{
			score.WithGPUCache(512 << 10), score.WithHostCache(1 << 20),
			score.WithStore(ssdDir), score.WithScrubOnOpen(),
		}
		if pfsDir != "" {
			opts = append(opts, score.WithPFSStore(pfsDir))
		}
		c, err := sim2.NewClient(0, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		recovered := map[int64]bool{}
		for _, v := range c.RecoveredVersions() {
			recovered[v] = true
			got, err := c.Restart(v)
			if err != nil {
				t.Errorf("restart %d of a recovered version: %v", v, err)
				continue
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Errorf("restart %d: recovered bytes not bit-exact", v)
			}
		}
		for v := range durable {
			if !recovered[v] {
				t.Errorf("manifest called version %d durable but the clean process cannot see it", v)
			}
		}
		if err := c.CheckMetricsInvariants(true); err != nil {
			t.Errorf("metrics invariants in recovery process: %v", err)
		}
	})
}

// TestMigrateChaosSoak drives live migrations through seeded fault
// schedules at the migrate copy site. Contract: MigrateRank either
// validates the cutover or returns a definitive error (injected fault
// or ErrMigrationIncomplete — never a silently divergent successor); a
// later fault-free incremental migration always converges; and the
// successor then restores the full corpus bit-exactly.
func TestMigrateChaosSoak(t *testing.T) {
	schedules := (*preemptSchedules + 1) / 2
	for i := 0; i < schedules; i++ {
		seed := int64(6000 + i)
		t.Run(fmt.Sprintf("schedule-%d", seed), func(t *testing.T) {
			runMigrateChaosSchedule(t, seed)
		})
	}
}

func runMigrateChaosSchedule(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	srcDir, dstDir := t.TempDir(), t.TempDir()
	const n = 6
	payloads := make([][]byte, n)
	for v := range payloads {
		b := make([]byte, 128*1024)
		r.Read(b)
		payloads[v] = b
	}
	// Only the migrate site is faulted: the source corpus must be
	// cleanly durable so divergence is attributable to the migration.
	var rules []score.FaultRule
	switch r.Intn(3) {
	case 0:
		rules = append(rules, score.FailProb(score.FaultMigrate, 0.3+0.4*r.Float64()))
	case 1:
		rules = append(rules, score.FailWindow(score.FaultMigrate, 0, time.Duration(1+r.Intn(50))*time.Millisecond))
	default:
		rules = append(rules, score.FailNth(score.FaultMigrate, int64(1+r.Intn(4))))
	}

	// Life 1: build the corpus, then migrate under the fault schedule.
	sim1, err := score.NewSim(score.WithNodes(2), score.WithGPUsPerNode(1))
	if err != nil {
		t.Fatal(err)
	}
	inj := sim1.NewFaultInjector(seed, rules...)
	sim1.Run(func() {
		c, err := sim1.NewClient(0, 0,
			score.WithGPUCache(512<<10), score.WithHostCache(1<<20),
			score.WithStore(srcDir), score.WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for v := 0; v < n; v++ {
			if err := c.Checkpoint(int64(v), payloads[v]); err != nil {
				t.Fatalf("checkpoint %d: %v", v, err)
			}
			c.Compute(time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatalf("source corpus did not flush cleanly: %v", err)
		}
		rep, err := sim1.MigrateRank(c, 1, dstDir)
		if err != nil {
			if !errors.Is(err, score.ErrFaultInjected) && !errors.Is(err, score.ErrMigrationIncomplete) {
				t.Fatalf("migration failed without a definitive cause: %v", err)
			}
		} else if !rep.Validated {
			t.Fatalf("migration returned success without validation: %+v", rep)
		}
	})

	// Life 2: a fault-free incremental migration from the recovered
	// source must converge — whatever the chaos run already landed on
	// the successor is skipped, the rest is copied and validated.
	sim2, err := score.NewSim(score.WithNodes(2), score.WithGPUsPerNode(1))
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run(func() {
		c, err := sim2.NewClient(0, 0,
			score.WithGPUCache(512<<10), score.WithHostCache(1<<20),
			score.WithStore(srcDir))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := sim2.MigrateRank(c, 1, dstDir)
		if err != nil {
			t.Fatalf("fault-free catch-up migration failed: %v", err)
		}
		if !rep.Validated {
			t.Fatalf("catch-up migration not validated: %+v", rep)
		}
	})

	// Life 3: the successor adopts its store and restores everything.
	sim3, err := score.NewSim(score.WithNodes(2), score.WithGPUsPerNode(1))
	if err != nil {
		t.Fatal(err)
	}
	sim3.Run(func() {
		c, err := sim3.NewClient(1, 0,
			score.WithGPUCache(512<<10), score.WithHostCache(1<<20),
			score.WithStore(dstDir), score.WithScrubOnOpen())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := c.RecoveredVersions(); len(got) != n {
			t.Fatalf("successor recovered %d/%d versions", len(got), n)
		}
		for v := 0; v < n; v++ {
			got, err := c.Restart(int64(v))
			if err != nil {
				t.Fatalf("successor restart %d: %v", v, err)
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Fatalf("successor restart %d: not bit-exact", v)
			}
		}
	})
}
