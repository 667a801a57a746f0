package score_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"score"
)

// TestKillMidFlushSurvivorsUnaffected kills one of two co-located ranks
// while its flush queue is full. The dead rank's in-flight flushes must
// resolve as lost (conservation stays balanced), every later API call
// returns ErrKilled, and the surviving rank — sharing the node's NVMe and
// PFS links — drains cleanly, losing nothing.
func TestKillMidFlushSurvivorsUnaffected(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	const n = 12
	payload := func(rank, v int) []byte {
		return bytes.Repeat([]byte{byte(0x10*rank + v + 1)}, 1<<20)
	}

	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := sim.NewCommitTracker(2)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		a, err := sim.NewClient(0, 0,
			score.WithGPUCache(2<<20), score.WithHostCache(4<<20),
			score.WithStore(dirA), score.WithCommitTracker(tracker, 0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.NewClient(0, 1,
			score.WithGPUCache(2<<20), score.WithHostCache(4<<20),
			score.WithStore(dirB), score.WithCommitTracker(tracker, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()

		wg := sim.NewWaitGroup()
		wg.Add(1)
		sim.Clock().Go(func() {
			defer wg.Done()
			for v := 0; v < n; v++ {
				if err := b.Checkpoint(int64(v), payload(1, v)); err != nil {
					t.Errorf("survivor checkpoint %d: %v", v, err)
					return
				}
				b.Compute(time.Millisecond)
			}
		})

		// Fill rank A's flush queue back-to-back, then kill it with
		// transfers in flight.
		for v := 0; v < n; v++ {
			if err := a.Checkpoint(int64(v), payload(0, v)); err != nil {
				t.Fatalf("checkpoint %d: %v", v, err)
			}
		}
		sim.Clock().Sleep(200 * time.Microsecond)
		a.Kill()
		if !a.Killed() {
			t.Error("Killed() false after Kill")
		}

		// The dead rank answers every call with ErrKilled.
		if err := a.Checkpoint(n, payload(0, n)); !errors.Is(err, score.ErrKilled) {
			t.Errorf("Checkpoint after kill = %v, want ErrKilled", err)
		}
		if _, err := a.Restart(0); !errors.Is(err, score.ErrKilled) {
			t.Errorf("Restart after kill = %v, want ErrKilled", err)
		}
		if err := a.WaitFlush(); !errors.Is(err, score.ErrKilled) {
			t.Errorf("WaitFlush after kill = %v, want ErrKilled", err)
		}

		// Every accepted byte has a decided fate: durable before the kill
		// or lost with it. The quiescent balance must hold exactly.
		if err := a.CheckMetricsInvariants(true); err != nil {
			t.Errorf("killed rank invariants: %v", err)
		}
		st := a.Stats()
		if st.RankDeaths != 1 {
			t.Errorf("killed rank RankDeaths = %d, want 1", st.RankDeaths)
		}
		sum := a.MetricsSummary()
		if sum.LostBytes == 0 {
			t.Error("kill mid-flush lost nothing — the queue was already drained")
		}
		if sum.AcceptedBytes != sum.DurableBytes+sum.DiscardedBytes+sum.LostBytes {
			t.Errorf("conservation broken after kill: accepted %d != durable %d + discarded %d + lost %d",
				sum.AcceptedBytes, sum.DurableBytes, sum.DiscardedBytes, sum.LostBytes)
		}

		// The survivor is unaffected: full drain, nothing lost, and its
		// restores still work over the shared links.
		wg.Wait()
		if err := b.WaitFlush(); err != nil {
			t.Fatalf("survivor WaitFlush: %v", err)
		}
		if sumB := b.MetricsSummary(); sumB.LostBytes != 0 || sumB.FlushAborts != 0 {
			t.Errorf("survivor lost bytes (%d) or aborted flushes (%d)", sumB.LostBytes, sumB.FlushAborts)
		}
		got, err := b.Restart(0)
		if err != nil || !bytes.Equal(got, payload(1, 0)) {
			t.Errorf("survivor restart after co-rank kill: %v", err)
		}
		if st := b.Stats(); st.RankDeaths != 0 {
			t.Errorf("survivor RankDeaths = %d, want 0", st.RankDeaths)
		}

		// Group commit saw the death, and the frontier can only trail the
		// survivor's newest durable version.
		if tracker.RankDeaths() != 1 {
			t.Errorf("tracker RankDeaths = %d, want 1", tracker.RankDeaths())
		}
		if dead := tracker.DeadRanks(); len(dead) != 1 || dead[0] != 0 {
			t.Errorf("DeadRanks = %v, want [0]", dead)
		}
		if lc, ok := tracker.LatestConsistent(); ok && lc >= n-1 {
			t.Errorf("latest consistent %d despite rank 0 dying mid-job", lc)
		}
	})

	// Ground truth on disk: rank A's store holds only fully committed
	// checkpoints — whatever was durable before the kill, never garbage.
	files, err := filepath.Glob(filepath.Join(dirA, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) >= n {
		t.Errorf("killed rank persisted all %d checkpoints — kill landed after the drain", len(files))
	}
}

// TestDegradedTierHealsAfterFaultWindow (regression for the degradation
// ladder's recovery path): an SSD outage degrades the tier and reroutes
// to the PFS, but once the fault window closes and the probe interval
// elapses, the client re-promotes the SSD instead of staying degraded
// forever.
func TestDegradedTierHealsAfterFaultWindow(t *testing.T) {
	ssdDir, pfsDir := t.TempDir(), t.TempDir()
	payload := func(v int) []byte {
		return bytes.Repeat([]byte{byte(0x21 * (v + 1))}, 256*1024)
	}

	sim, err := score.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(11,
		score.FailWindow(score.FaultNVMe, 0, 20*time.Millisecond),
		score.FailWindow(score.FaultStoreWrite, 0, 20*time.Millisecond))
	sim.Run(func() {
		c, err := sim.NewClient(0, 0,
			score.WithGPUCache(1<<20), score.WithHostCache(4<<20),
			score.WithStore(ssdDir), score.WithPFSStore(pfsDir),
			score.WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// v0 lands during the outage: SSD degrades, the PFS leg saves it.
		if err := c.Checkpoint(0, payload(0)); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if tiers := c.DegradedTiers(); len(tiers) != 1 || tiers[0] != "ssd" {
			t.Fatalf("DegradedTiers after outage = %v, want [ssd]", tiers)
		}

		// Fault window closes and the recovery probe interval elapses;
		// the next flush probes the SSD, succeeds, and heals the tier.
		c.Compute(150 * time.Millisecond)
		if err := c.Checkpoint(1, payload(1)); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if tiers := c.DegradedTiers(); len(tiers) != 0 {
			t.Errorf("DegradedTiers after recovery = %v, want none", tiers)
		}
		if st := c.Stats(); st.TierRecoveries == 0 {
			t.Error("no TierRecoveries recorded after the tier healed")
		}
		if err := c.CheckMetricsInvariants(true); err != nil {
			t.Errorf("metrics invariants: %v", err)
		}
	})

	// The healed tier is really in use again: v1 reached the SSD store.
	files, err := filepath.Glob(filepath.Join(ssdDir, "1.ckpt"))
	if err != nil || len(files) != 1 {
		t.Errorf("v1 not persisted to the healed SSD store (%v, %v)", files, err)
	}
}

// TestRankFailureSingleRankKill kills one GPU's process mid-flush, not
// its node: the rank's local store survives the crash (process death, not
// disk death), so a restart of all four ranks of a 2-node job recovers
// the newest version every store holds, bit-exactly, without partner
// copies.
func TestRankFailureSingleRankKill(t *testing.T) {
	const nodes, gpus, versions = 2, 2, 6
	const interval = 10 * time.Millisecond
	payload := func(rank int, v int64) []byte {
		return bytes.Repeat([]byte{byte(0x10*rank + int(v) + 1)}, 1<<20)
	}
	dirs := make([]string, nodes*gpus)
	for r := range dirs {
		dirs[r] = t.TempDir()
	}
	// clients opens one client per rank of sim, rank = node*gpus + gpu,
	// each on its rank's store with small caches and extra options.
	clients := func(sim *score.Sim, extra func(rank int) []score.ClientOption) []*score.Client {
		var out []*score.Client
		for rank := range dirs {
			opts := append([]score.ClientOption{score.WithGPUCache(16 << 20), score.WithHostCache(16 << 20),
				score.WithStore(dirs[rank])}, extra(rank)...)
			cl, err := sim.NewClient(rank/gpus, rank%gpus, opts...)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, cl)
		}
		return out
	}

	// Phase one: rank 0 (node 0, GPU 0) dies 2.5 compute intervals in.
	sim, err := score.NewSim(score.WithNodes(nodes), score.WithGPUsPerNode(gpus))
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := sim.NewCommitTracker(len(dirs))
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.NewFaultInjector(2023)
	inj.AddKills(score.KillRank(0, 0, interval*5/2))
	sim.Run(func() {
		cls := clients(sim, func(rank int) []score.ClientOption {
			return []score.ClientOption{score.WithAsyncHostInit(),
				score.WithCommitTracker(tracker, rank), score.WithFaultInjector(inj)}
		})
		wg := sim.NewWaitGroup()
		for rank, cl := range cls {
			wg.Add(1)
			sim.Clock().Go(func() {
				defer wg.Done()
				defer cl.Close()
				for v := int64(0); v < versions; v++ {
					if err := cl.Checkpoint(v, payload(rank, v)); err != nil {
						return // killed mid-run
					}
					cl.Compute(interval)
				}
				_ = cl.WaitFlush() // ErrKilled when death raced the drain
			})
		}
		wg.Wait()
	})
	if n := tracker.RankDeaths(); n != 1 {
		t.Fatalf("rank deaths = %d, want one", n)
	}

	// Phase two: restart every rank on its surviving store and restore
	// the newest version all of them hold.
	sim2, err := score.NewSim(score.WithNodes(nodes), score.WithGPUsPerNode(gpus))
	if err != nil {
		t.Fatal(err)
	}
	restart, err := sim2.NewCommitTracker(len(dirs))
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run(func() {
		cls := clients(sim2, func(int) []score.ClientOption { return nil })
		for rank, cl := range cls {
			defer cl.Close()
			for _, v := range cl.RecoveredVersions() {
				restart.MarkDurable(rank, v)
			}
		}
		latest, ok := restart.LatestConsistent()
		if !ok {
			t.Fatal("single-rank kill with surviving stores left no consistent version")
		}
		for rank, cl := range cls {
			got, err := cl.Restart(latest)
			if err != nil {
				t.Fatalf("rank %d restart of v%d: %v", rank, latest, err)
			}
			if !bytes.Equal(got, payload(rank, latest)) {
				t.Errorf("rank %d restored v%d with wrong bytes", rank, latest)
			}
		}
	})
}
