//go:build unix

package score_test

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"

	"score"
)

// versionGrowthCeiling is the most a rank's host cost per version may grow
// from 96 to 1,536 versions in TestHostCostIsLinearInVersions. The Score
// scan stays O(N) per eviction by design (§4.2), so the cost per version
// still grows; what the ceiling holds off is an O(N) walk per operation
// around it. Ten runs on a 2-vCPU container read 2.60–3.33x in wall time;
// the ceiling is the largest plus 15 %. Before the cache placement and the
// host stager stopped walking per operation, ten runs read 4.53–5.57x.
// Measured in process CPU time, nine runs alone read 3.01–3.56x and three
// beside go test ./... read 3.23–3.61x: wall time had read up to 3.86x
// there, another package's process taking the second vCPU.
const versionGrowthCeiling = 3.83

// hostCostPerVersion runs one node of eight ranks through shots of n
// uniform 8 MiB versions per rank, each rank's GPU cache 1/12 and host
// cache 2/3 of its bytes, links at 1/16 of a DGX A100's: every version
// hinted, written in order, restored in reverse, and discarded once
// consumed. It runs as many shots as make 1,536 versions per rank and
// returns the host time in µs per version per rank: the process's CPU
// time, so another process on the machine — another package's tests
// beside this one under go test ./... — does not count, as it would in
// wall time.
func hostCostPerVersion(t *testing.T, n int) float64 {
	t.Helper()
	runtime.GC() // no collection owed by the previous run
	start := processCPU(t)
	for shot := 0; shot < 1536/n; shot++ {
		reverseShot(t, n)
	}
	return float64((processCPU(t) - start).Nanoseconds()) / 1e3 / float64(1536*8)
}

// processCPU returns the user and system CPU time the process has used,
// all its threads together (getrusage).
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func reverseShot(t *testing.T, n int) {
	const ranks, size = 8, 8 << 20
	sim, err := score.NewSim(score.WithBandwidth(1.0 / 16))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(func() {
		wg := sim.NewWaitGroup()
		wg.Add(ranks)
		for g := 0; g < ranks; g++ {
			sim.Clock().Go(func() {
				defer wg.Done()
				c, err := sim.NewClient(0, g, score.WithDiscardAfterRestore(),
					score.WithGPUCache(int64(n)*size/12), score.WithHostCache(int64(n)*size*2/3))
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for v := n - 1; v >= 0; v-- {
					c.PrefetchEnqueue(int64(v))
				}
				for v := 0; v < n; v++ {
					if err := c.CheckpointVirtual(int64(v), size); err != nil {
						t.Error(err)
						return
					}
				}
				c.PrefetchStart()
				for v := n - 1; v >= 0; v-- {
					if _, err := c.Restart(int64(v)); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
	})
}

// TestHostCostIsLinearInVersions is the version-scaling gate: host CPU µs
// per version per rank at 96, 384 and 1,536 versions, the two ends
// alternated over five rounds and compared by their medians, so a slower
// or busier machine moves both alike. -v prints the table.
func TestHostCostIsLinearInVersions(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's overhead is not the simulator's")
	}
	if testing.Short() {
		t.Skip("a scaling sweep")
	}
	const rounds = 5
	var small, large []float64
	for r := 0; r < rounds; r++ {
		small = append(small, hostCostPerVersion(t, 96))
		large = append(large, hostCostPerVersion(t, 1536))
	}
	mid := hostCostPerVersion(t, 384)
	median := func(xs []float64) float64 { slices.Sort(xs); return xs[len(xs)/2] }
	lo, hi := median(small), median(large)
	growth := hi / lo
	t.Logf("host CPU µs per version per rank, Score, all hints, reverse order")
	t.Logf("%8s %8s %8s %8s", "96", "384", "1,536", "growth")
	t.Logf("%8.1f %8.1f %8.1f %7.2fx", lo, mid, hi, growth)
	if growth > versionGrowthCeiling {
		t.Errorf("host cost per version grows %.2fx from 96 to 1,536 versions (%s), over the %.2fx ceiling",
			growth, fmt.Sprintf("%.1f → %.1f µs", lo, hi), float64(versionGrowthCeiling))
	}
}
