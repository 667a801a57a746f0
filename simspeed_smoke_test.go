package score_test

import (
	"flag"
	"runtime"
	"testing"
	"time"

	"score/internal/report"
	"score/internal/simclock"
)

// simspeedOut, when set, makes the smoke test write its measurements as
// a simspeed-record JSON file (make bench-smoke passes
// BENCH_simspeed.json).
var simspeedOut = flag.String("simspeed.out", "", "write simulator-speed records to this JSON file")

// simspeedBaselinePath is the committed regression floor the smoke test
// gates against. The events/sec floor is deliberately conservative (well
// below the reference container's measurements, see DESIGN.md §14) so
// the gate survives slower CI machines. Allocations do not depend on the
// machine, so that ceiling ratchets: it is the measured count (91,633
// per sweep when last ratcheted) plus 5 %, and a PR that lowers the count
// commits the lower ceiling.
const simspeedBaselinePath = "testdata/simspeed_baseline.json"

// measureSweep runs the 10k-rank sweep iters times and returns the
// model-events rate, the engine-wakeup rate, and the per-sweep
// allocation count.
func measureSweep(t *testing.T, iters int, opts ...simclock.VirtualOption) report.SimSpeedRecord {
	t.Helper()
	var before, after runtime.MemStats
	startWake := simclock.EventCount()
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		runRankSweep(t, sweepRanks, sweepLinks, sweepRounds, opts...)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	wakes := simclock.EventCount() - startWake
	secs := wall.Seconds()
	return report.SimSpeedRecord{
		EventsPerSec:  float64(iters*sweepModelEvents) / secs,
		WakeupsPerSec: float64(wakes) / secs,
		AllocsPerOp:   int64(after.Mallocs-before.Mallocs) / int64(iters),
		WallNsPerOp:   float64(wall.Nanoseconds()) / float64(iters),
	}
}

// TestSimSpeedSmoke is the `make bench-smoke` gate on the simulator
// engine itself: the 10k-rank sweep must stay within 20% of the
// committed events/sec baseline and must not allocate more per sweep
// than the baseline allows. The measurements (the default wheel and the
// heap-timer reference) are exported as BENCH_simspeed.json when
// -simspeed.out is set.
func TestSimSpeedSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("simulator-speed gate is meaningless under the race detector (~50× slowdown, shadow allocations)")
	}
	serial := measureSweep(t, 2)
	serial.Name = "sweep/10k-serial"
	heap := measureSweep(t, 1, simclock.WithHeapTimers())
	heap.Name = "sweep/10k-heap-reference"

	t.Logf("serial: %.0f events/sec, %.0f wakeups/sec, %d allocs/op",
		serial.EventsPerSec, serial.WakeupsPerSec, serial.AllocsPerOp)
	t.Logf("heap reference: %.0f events/sec, %d allocs/op", heap.EventsPerSec, heap.AllocsPerOp)

	baselines, err := report.LoadSimSpeedFile(simspeedBaselinePath)
	if err != nil {
		t.Fatalf("loading committed baseline: %v", err)
	}
	for _, base := range baselines {
		if base.Name != serial.Name {
			continue
		}
		if floor := base.EventsPerSec * 0.8; serial.EventsPerSec < floor {
			t.Errorf("events/sec regressed: %.0f < %.0f (80%% of committed baseline %.0f)",
				serial.EventsPerSec, floor, base.EventsPerSec)
		}
		if serial.AllocsPerOp > base.AllocsPerOp {
			t.Errorf("allocs/op regressed: %d > committed baseline %d",
				serial.AllocsPerOp, base.AllocsPerOp)
		}
	}

	if *simspeedOut != "" {
		records := []report.SimSpeedRecord{serial, heap}
		if err := report.WriteSimSpeedFile(*simspeedOut, records); err != nil {
			t.Fatalf("writing %s: %v", *simspeedOut, err)
		}
		t.Logf("wrote %d simspeed records to %s", len(records), *simspeedOut)
	}
}
