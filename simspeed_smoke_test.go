package score_test

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
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

// simspeedChild marks the re-executed test binary that does the measuring;
// only TestSimSpeedSmoke sets it.
var simspeedChild = flag.Bool("simspeed.child", false, "measure the sweep in this process and write -simspeed.out")

// simspeedBaselinePath is the committed regression ceiling the smoke test
// gates against. Allocations do not depend on the machine, so the ceiling
// ratchets: it is the measured count (91,6xx per sweep in a process that
// runs nothing else) plus 5 %, and a PR that lowers the count commits the
// lower ceiling. Speed does depend on the machine, so it is gated as a
// ratio inside one run (wheelVsHeapFloor), not against a committed number.
const simspeedBaselinePath = "testdata/simspeed_baseline.json"

// wheelVsHeapFloor is the least the default timer wheel may retire, in
// model events per second, relative to the binary-heap reference it
// replaced, both measured back to back in one process. The wheel reads
// 1.1–1.4x the heap whether the host is quiet or loaded; a change that
// makes the default engine slower than its own reference fails here on any
// machine.
const wheelVsHeapFloor = 0.9

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
// left running. The measurements are exported as BENCH_simspeed.json when
// -simspeed.out is set.
func TestSimSpeedSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("simulator-speed gate is meaningless under the race detector (~50× slowdown, shadow allocations)")
	}
	if *simspeedChild {
		records := []report.SimSpeedRecord{
			measureSweep(t, "sweep/10k-serial", 2),
			measureSweep(t, "sweep/10k-heap-reference", 2, simclock.WithHeapTimers()),
		}
		if err := report.WriteSimSpeedFile(*simspeedOut, records); err != nil {
			t.Fatalf("writing %s: %v", *simspeedOut, err)
		}
		return
	}
	out := *simspeedOut
	if out == "" {
		out = filepath.Join(t.TempDir(), "simspeed.json")
	}
	child := exec.Command(os.Args[0], "-test.run=^TestSimSpeedSmoke$", "-simspeed.child", "-simspeed.out="+out)
	if msg, err := child.CombinedOutput(); err != nil {
		t.Fatalf("measuring in a child process: %v\n%s", err, msg)
	}
	records, err := report.LoadSimSpeedFile(out)
	if err != nil || len(records) != 2 {
		t.Fatalf("reading the child's %d records: %v", len(records), err)
	}
	heap, serial := records[0], records[1] // sorted by name
	t.Logf("serial: %.0f events/sec, %.0f wakeups/sec, %d allocs/op",
		serial.EventsPerSec, serial.WakeupsPerSec, serial.AllocsPerOp)
	t.Logf("heap reference: %.0f events/sec, %d allocs/op", heap.EventsPerSec, heap.AllocsPerOp)

	if ratio := serial.EventsPerSec / heap.EventsPerSec; ratio < wheelVsHeapFloor {
		t.Errorf("events/sec regressed: the wheel retires %.2fx the heap reference's %.0f, floor %.2fx",
			ratio, heap.EventsPerSec, wheelVsHeapFloor)
	}
	baselines, err := report.LoadSimSpeedFile(simspeedBaselinePath)
	if err != nil {
		t.Fatalf("loading committed baseline: %v", err)
	}
	for _, base := range baselines {
		if base.Name == serial.Name && serial.AllocsPerOp > base.AllocsPerOp {
			t.Errorf("allocs/op regressed: %d > committed ceiling %d", serial.AllocsPerOp, base.AllocsPerOp)
		}
	}
	if *simspeedOut != "" {
		t.Logf("wrote %d simspeed records to %s", len(records), *simspeedOut)
	}
}
