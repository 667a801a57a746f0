package score_test

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"score/internal/report"
	"score/internal/simclock"
)

// simspeedOut is where the measuring child process writes its
// simulator-speed records for TestSimSpeedSmoke to gate.
var simspeedOut = flag.String("simspeed.out", "", "write simulator-speed records to this JSON file")

// simspeedChild marks the re-executed test binary that does the measuring;
// only TestSimSpeedSmoke sets it.
var simspeedChild = flag.Bool("simspeed.child", false, "measure the sweep in this process and write -simspeed.out")

// simspeedBaselinePath is the committed regression ceiling the smoke test
// gates against. Allocations do not depend on the machine, so the ceiling
// ratchets: it is the measured count (161,22x per sweep in a process that
// runs nothing else) plus 2 %, and a PR that lowers the count commits the
// lower ceiling. It went up once, from 96,195, when tasks became
// coroutines: the sweep starts 10,000 at once, none to reuse, and each costs
// iter.Pull's 11 allocations (DESIGN.md §14 says what that bought). It came
// down from 184,912 when a transfer's owner stopped needing a cond of its
// own: the transfer record's event carries its wake.
// Speed does depend on the machine, so it is gated as a
// ratio inside one run (wheelVsHeapFloor), not against a committed number.
const simspeedBaselinePath = "testdata/simspeed_baseline.json"

// wheelVsHeapFloor is the least the default timer wheel may retire, in
// model events per second, relative to the binary-heap reference it
// replaced, both measured back to back in one process. The median of
// seven alternating rounds reads 1.1–1.3x on a quiet host and 1.0–1.6x
// beside the rest of `go test ./...`; a change that makes the default
// engine slower than its own reference fails here on any machine.
const wheelVsHeapFloor = 0.9

// wakeupsPerEventCeiling is the most engine wakeups (simclock.EventCount)
// the 10k-rank sweep may spend per model event. Both are counts, so the
// ratio is the same on every machine, and the ceiling ratchets down. It
// reads 1.0000125: each rank-round is two model events and two wakeups
// (the compute sleep and the completion; the link latency is the
// transfer's event, not a wake), plus the root leaving its WaitGroup once.
const wakeupsPerEventCeiling = 1.00002

// measureSweep runs the 10k-rank sweep iters times and returns the
// model-events rate, the engine-wakeup rate, and the per-sweep
// allocation count — process-wide, so meaningful only when nothing else
// runs in the process.
func measureSweep(t *testing.T, name string, iters int, opts ...simclock.VirtualOption) report.SimSpeedRecord {
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
		Name:          name,
		EventsPerSec:  float64(iters*sweepModelEvents) / secs,
		WakeupsPerSec: float64(wakes) / secs,
		AllocsPerOp:   int64(after.Mallocs-before.Mallocs) / int64(iters),
		WallNsPerOp:   float64(wall.Nanoseconds()) / float64(iters),
	}
}

// TestSimSpeedSmoke is the `make bench-smoke` gate on the simulator
// engine itself: the 10k-rank sweep must not allocate more per sweep than
// the committed ceiling allows, and the default engine must keep its lead
// over the heap reference. Both are measured by re-executing the test
// binary to run this test alone: allocations are counted process-wide, and
// in `go test ./...` this process also holds whatever the tests before it
// left running.
func TestSimSpeedSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("simulator-speed gate is meaningless under the race detector (~50× slowdown, shadow allocations)")
	}
	if *simspeedChild {
		// One unmeasured sweep first: growing the heap and 10,000 task stacks
		// from nothing is the process's cost, not the first backend's.
		runRankSweep(t, sweepRanks, sweepLinks, sweepRounds)
		// The backends alternate, sweep by sweep, and the round whose
		// wheel ÷ heap ratio is the median is the one reported: beside the
		// other packages of `go test ./...` a neighbour's burst lands on one
		// sweep, and single rounds read anywhere from 0.7x to 2.1x.
		rounds := make([][2]report.SimSpeedRecord, 7)
		for i := range rounds {
			rounds[i][0] = measureSweep(t, "sweep/10k-serial", 1)
			rounds[i][1] = measureSweep(t, "sweep/10k-heap-reference", 1, simclock.WithHeapTimers())
		}
		sort.Slice(rounds, func(a, b int) bool {
			return rounds[a][0].EventsPerSec/rounds[a][1].EventsPerSec < rounds[b][0].EventsPerSec/rounds[b][1].EventsPerSec
		})
		if err := report.SimSpeedFile.WriteFile(*simspeedOut, rounds[len(rounds)/2][:]); err != nil {
			t.Fatalf("writing %s: %v", *simspeedOut, err)
		}
		return
	}
	out := filepath.Join(t.TempDir(), "simspeed.json")
	child := exec.Command(os.Args[0], "-test.run=^TestSimSpeedSmoke$", "-simspeed.child", "-simspeed.out="+out)
	if msg, err := child.CombinedOutput(); err != nil {
		t.Fatalf("measuring in a child process: %v\n%s", err, msg)
	}
	records, err := report.SimSpeedFile.LoadFile(out)
	if err != nil || len(records) != 2 {
		t.Fatalf("reading the child's %d records: %v", len(records), err)
	}
	heap, serial := records[0], records[1] // sorted by name
	wakesPerEvent := serial.WakeupsPerSec / serial.EventsPerSec
	t.Logf("serial: %.0f events/sec, %.0f wakeups/sec (%.7f per event), %d allocs/op",
		serial.EventsPerSec, serial.WakeupsPerSec, wakesPerEvent, serial.AllocsPerOp)
	t.Logf("heap reference: %.0f events/sec, %d allocs/op", heap.EventsPerSec, heap.AllocsPerOp)

	if ratio := serial.EventsPerSec / heap.EventsPerSec; ratio < wheelVsHeapFloor {
		t.Errorf("events/sec regressed: the wheel retires %.2fx the heap reference's %.0f, floor %.2fx",
			ratio, heap.EventsPerSec, wheelVsHeapFloor)
	}
	if wakesPerEvent > wakeupsPerEventCeiling {
		t.Errorf("engine wakeups per model event regressed: %.7f > ceiling %.5f", wakesPerEvent, wakeupsPerEventCeiling)
	}
	baselines, err := report.SimSpeedFile.LoadFile(simspeedBaselinePath)
	if err != nil {
		t.Fatalf("loading committed baseline: %v", err)
	}
	for _, base := range baselines {
		if base.Name == serial.Name && serial.AllocsPerOp > base.AllocsPerOp {
			t.Errorf("allocs/op regressed: %d > committed ceiling %d", serial.AllocsPerOp, base.AllocsPerOp)
		}
	}
}
