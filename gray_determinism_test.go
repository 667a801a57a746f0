// Determinism regression tests for the gray-failure machinery. The
// contract (DESIGN.md §16): with hedging off and no gray faults
// injected, the health estimator is pure observation — the runtime's
// ledgers, metrics, store bytes, and timing are byte-identical to a
// build that never heard of hedging; and the hedge/stall timer paths
// themselves are observation-equivalent across the wheel and heap timer
// backends, even mid-race.
package score_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"score"
	"score/internal/core"
	"score/internal/device"
	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/simclock"
)

// grayRunDigest runs a fixed write/flush/restore scenario through the
// public API and digests everything observable: the merged metrics
// summary, the final virtual time, per-version restored bytes, and a
// hash of every durable store file.
func grayRunDigest(t *testing.T, attach func(*score.Sim) []score.ClientOption) string {
	t.Helper()
	ssdDir, pfsDir := t.TempDir(), t.TempDir()
	const n = 8
	payloads := make([][]byte, n)
	for v := range payloads {
		payloads[v] = bytes.Repeat([]byte{byte(0x21 * (v + 1))}, 128*1024)
	}

	sim, err := score.NewSim(score.WithNodes(1), score.WithGPUsPerNode(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := []score.ClientOption{
		score.WithGPUCache(256 << 10), score.WithHostCache(1 << 20),
		score.WithStore(ssdDir), score.WithPFSStore(pfsDir),
	}
	if attach != nil {
		opts = append(opts, attach(sim)...)
	}

	var sb bytes.Buffer
	sim.Run(func() {
		c, err := sim.NewClient(0, 0, opts...)
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
			t.Fatalf("wait flush: %v", err)
		}
		for v := n - 1; v >= 0; v-- {
			got, err := c.Restart(int64(v))
			if err != nil {
				t.Fatalf("restart %d: %v", v, err)
			}
			fmt.Fprintf(&sb, "restore %d sha=%x\n", v, sha256.Sum256(got))
			c.Compute(time.Millisecond)
		}
		sb.WriteString(rawSummary(t, c.MetricsSummary()))
		sb.WriteByte('\n')
	})
	fmt.Fprintf(&sb, "final=%v\n", sim.Clock().Now())

	for _, dir := range []string{ssdDir, pfsDir} {
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, f := range files {
			buf, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "store %s sha=%x\n", filepath.Base(f), sha256.Sum256(buf))
		}
	}
	return sb.String()
}

// TestGrayMachineryOffIsByteIdentical: attaching a fault injector whose
// gray schedule is empty — or whose jitter/stall windows never open —
// must leave every observable byte identical to the seed run with no
// injector at all. This is the acceptance bound for the health
// estimator's pure-observation claim: its bookkeeping on the hot paths
// must never perturb scheduling.
func TestGrayMachineryOffIsByteIdentical(t *testing.T) {
	seed := grayRunDigest(t, nil)

	empty := grayRunDigest(t, func(s *score.Sim) []score.ClientOption {
		return []score.ClientOption{score.WithFaultInjector(s.NewFaultInjector(42))}
	})
	if empty != seed {
		t.Errorf("empty fault schedule diverged from the seed run:\n--- seed\n%s\n--- empty schedule\n%s", seed, empty)
	}

	// Gray rules present but dormant: windows entirely beyond the run's
	// horizon. Rule evaluation happens on every transfer, so this pins
	// that a non-matching gray rule draws no randomness and adds no time.
	far := 10 * time.Hour
	dormant := grayRunDigest(t, func(s *score.Sim) []score.ClientOption {
		inj := s.NewFaultInjector(42,
			score.JitterOps(score.FaultNVMe, time.Millisecond, far, far+time.Hour),
			score.StallWindow(score.FaultPFS, far, far+time.Hour),
			score.SlowLink(score.FaultPCIe, 0.5, far, far+time.Hour))
		return []score.ClientOption{score.WithFaultInjector(inj)}
	})
	if dormant != seed {
		t.Errorf("dormant gray rules diverged from the seed run:\n--- seed\n%s\n--- dormant\n%s", seed, dormant)
	}
}

// grayCoreFingerprint runs the core client directly on a chosen timer
// backend: healthy flush phase, then a raw interceptor silently drops
// the NVMe link to 5% bandwidth (a gray fault with no injector in the
// loop), then a deep restore pass. With hedge set, the restores race
// the PFS replica via WaitTimeout-armed deadlines — the exact timer
// paths whose wheel/heap equivalence this fingerprints.
func grayCoreFingerprint(t *testing.T, hedge bool, opts ...simclock.VirtualOption) string {
	t.Helper()
	const (
		n    = 10
		size = int64(32 << 20)
	)
	clk := simclock.NewVirtual(opts...)
	nodeCfg := fabric.DGXA100()
	nodeCfg.GPUs = 1
	cluster, err := fabric.NewCluster(clk, 1, nodeCfg)
	if err != nil {
		t.Fatal(err)
	}
	node := cluster.Nodes[0]
	d2d, pcie := node.GPULinks(0)
	gpu := device.NewGPU(clk, 0, 40*fabric.GB, d2d, pcie, device.DefaultAllocCosts())

	var sum metrics.Summary
	clk.Run(func() {
		c, err := core.New(core.Params{
			Clock: clk, GPU: gpu, NVMe: node.NVMe, PFS: node.PFS,
			GPUCacheSize: 4 * size, HostCacheSize: 4 * size,
			AsyncHostInit: true, PersistToPFS: true, FlushStreams: 2,
			Hedge: hedge,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for v := int64(0); v < n; v++ {
			if err := c.Checkpoint(core.ID(v), payload.NewVirtual(size)); err != nil {
				t.Fatalf("checkpoint %d: %v", v, err)
			}
			clk.Sleep(2 * time.Millisecond)
		}
		if err := c.WaitFlush(); err != nil {
			t.Fatalf("wait flush: %v", err)
		}
		// The gray fault: from here on the NVMe link silently runs at 5%.
		cut := clk.Now()
		node.NVMe.SetInterceptor(func(string, int64) fabric.FaultDecision {
			if clk.Now() >= cut {
				return fabric.FaultDecision{BandwidthScale: 0.05}
			}
			return fabric.FaultDecision{}
		})
		for v := int64(n) - 1; v >= 0; v-- {
			if _, err := c.Restore(core.ID(v)); err != nil {
				t.Fatalf("restore %d: %v", v, err)
			}
			clk.Sleep(2 * time.Millisecond)
		}
		sum = c.Metrics().Snapshot()
	})

	return fmt.Sprintf("final=%v\n%s\n", clk.Now(), rawSummary(t, sum))
}

// rawSummary is the metrics summary as the bytes json.Marshal gives it. One
// task runs at a time in a fixed order (DESIGN.md §14), so same-instant
// record order and zero-duration histogram entries repeat too and nothing
// is normalized away.
func rawSummary(t *testing.T, sum metrics.Summary) string {
	t.Helper()
	j, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// TestGrayHedgeWheelVsHeap: the hedge race's deadline timers must be
// observation-equivalent across the wheel and heap timer backends —
// with hedging off (pure estimator bookkeeping) and on (WaitTimeout
// deadlines genuinely firing and launching hedge legs mid-straggler).
func TestGrayHedgeWheelVsHeap(t *testing.T) {
	for _, hedge := range []bool{false, true} {
		name := map[bool]string{false: "unhedged", true: "hedged"}[hedge]
		t.Run(name, func(t *testing.T) {
			wheel := grayCoreFingerprint(t, hedge)
			heap := grayCoreFingerprint(t, hedge, simclock.WithHeapTimers())
			if wheel != heap {
				t.Fatalf("wheel and heap timer backends diverged:\nwheel:\n%s\nheap:\n%s", wheel, heap)
			}
		})
	}
}

// TestGrayHedgeRepeatable: two hedged runs of the straggler scenario on
// the default backend are byte-identical — the race coordinator and
// background loser legs introduce no scheduling nondeterminism.
func TestGrayHedgeRepeatable(t *testing.T) {
	a := grayCoreFingerprint(t, true)
	b := grayCoreFingerprint(t, true)
	if a != b {
		t.Fatalf("two hedged runs diverged:\n%s\nvs\n%s", a, b)
	}
}
