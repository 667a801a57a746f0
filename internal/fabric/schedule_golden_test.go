package fabric

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"score/internal/simclock"
)

// updateSchedules rewrites testdata/schedules.golden from the current code.
var updateSchedules = flag.Bool("update", false, "rewrite testdata/schedules.golden")

// goldenSchedules is how many seeded schedules the golden file holds.
const goldenSchedules = 300

// errInjected is the failure the schedules' interceptors return.
var errInjected = errors.New("injected")

// scheduleOp is one caller in a seeded schedule: a plain transfer on one
// link or a chunked stream over a path, started at a fixed instant and
// repeated back to back, so what a caller does next in the slot it was
// resumed in reaches the links too.
type scheduleOp struct {
	start  time.Duration
	path   []int // link indexes; one entry is a plain TryTransfer
	size   int64
	chunk  int64
	rounds int
}

// runSchedule builds and runs schedule seed on a fresh clock and renders,
// per caller, when it started and ended, what it returned and what every
// hop carried, then the order in which the callers finished. Interceptors
// draw their decisions from a per-link random stream in call order, so a
// change in who reaches a link first at one instant changes the numbers,
// and every call is logged, so such a change shows even where it moves
// no number.
func runSchedule(seed int64, opts ...simclock.VirtualOption) string {
	rng := rand.New(rand.NewSource(seed))
	nLinks := 2 + rng.Intn(3)
	zeroLatency := rng.Intn(3) == 0
	var ops []scheduleOp
	for i, n := 0, 2+rng.Intn(7); i < n; i++ {
		op := scheduleOp{
			start:  time.Duration(rng.Intn(4)) * time.Duration(1+rng.Intn(3)) * time.Microsecond,
			size:   int64(1+rng.Intn(48)) * 1024,
			rounds: 1 + rng.Intn(2),
		}
		if rng.Intn(2) == 0 { // equal sizes on shared links make same-instant completions
			op.start = time.Duration(rng.Intn(2)) * 2 * time.Microsecond
			op.size = []int64{8192, 16384, 24576, 20000}[rng.Intn(4)]
		} else {
			op.size += int64(rng.Intn(1000))
		}
		hops := 1
		if rng.Intn(3) > 0 {
			hops = 2 + rng.Intn(2)
		}
		if hops > nLinks {
			hops = nLinks
		}
		op.path = rng.Perm(nLinks)[:hops]
		op.chunk = []int64{4096, 8192, 5000}[rng.Intn(3)]
		if rng.Intn(3) == 0 {
			op.chunk = int64(2+rng.Intn(14))*1024 + int64(rng.Intn(512))
		}
		ops = append(ops, op)
	}

	clk := simclock.NewVirtual(opts...)
	var out bytes.Buffer
	fmt.Fprintf(&out, "schedule %d\n", seed)
	var begins []string
	clk.Run(func() {
		links := make([]*Link, nLinks)
		for i := range links {
			bw := float64(1+rng.Intn(2)) * GB
			var lat time.Duration
			if !zeroLatency && rng.Intn(4) > 0 {
				lat = time.Duration(1+rng.Intn(3)) * time.Microsecond
			}
			links[i] = NewLink(clk, fmt.Sprintf("l%d", i), bw, lat)
			faulty := rng.Intn(3) == 0
			decide := rand.New(rand.NewSource(seed*31 + int64(i)))
			links[i].SetInterceptor(func(name string, size int64) FaultDecision {
				// Every link logs who reaches it when, so the order of the
				// starts at one instant is pinned even where it moves no
				// number.
				begins = append(begins, fmt.Sprintf("%v/%s/%d", clk.Now(), name, size))
				var fd FaultDecision
				if faulty {
					switch r := decide.Intn(20); {
					case r == 0:
						fd.Err = errInjected
					case r == 1:
						fd.Err = errInjected
						fd.Delay = time.Duration(1+decide.Intn(3)) * time.Microsecond
					case r < 5:
						fd.Delay = time.Duration(1+decide.Intn(3)) * time.Microsecond
					case r < 8:
						fd.BandwidthScale = 0.5
					}
				}
				return fd
			})
			fmt.Fprintf(&out, "link l%d bw=%.0f lat=%v\n", i, bw, lat)
		}
		results := make([][]string, len(ops))
		var order []int
		wg := simclock.NewWaitGroup(clk)
		for i, op := range ops {
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(op.start)
				for round := 0; round < op.rounds; round++ {
					begin := clk.Now()
					var st PipelineStats
					var err error
					if len(op.path) == 1 {
						st.Duration, err = links[op.path[0]].TryTransfer(op.size)
					} else {
						p := make(Path, len(op.path))
						for h, li := range op.path {
							p[h] = links[li]
						}
						st, err = p.TryPipelined(op.size, op.chunk)
					}
					order = append(order, i)
					results[i] = append(results[i], fmt.Sprintf(
						"op %d.%d path=%v size=%d chunk=%d start=%v end=%v dur=%v chunks=%d busy=%v bytes=%v err=%v",
						i, round, op.path, op.size, op.chunk, begin, clk.Now(), st.Duration, st.Chunks, st.HopBusy[:st.Hops], st.HopBytes[:st.Hops], err))
				}
			})
		}
		wg.Wait()
		for _, rs := range results {
			for _, r := range rs {
				fmt.Fprintln(&out, r)
			}
		}
		fmt.Fprintf(&out, "order %v end=%v\n", order, clk.Now())
		fmt.Fprintf(&out, "begins %v\n", begins)
		for _, l := range links {
			s := l.StatsSnapshot()
			fmt.Fprintf(&out, "stats %s bytes=%d transfers=%d peak=%d busy=%v inflight=%d\n",
				l.Name(), s.Bytes, s.Transfers, s.PeakConcurrent, s.Busy, s.InFlight)
		}
	})
	return out.String()
}

// TestScheduleGolden replays goldenSchedules seeded schedules of
// concurrent plain transfers and chunked streams — two and three hops,
// zero and non-zero latency, uneven chunks, staggered starts, interceptors
// that delay, fail and throttle — and requires every duration, every
// per-hop figure and the order the callers finished in to match
// testdata/schedules.golden byte for byte, on both timer stores. The file
// pins every same-instant order the link and the pipeline produce; run
// with -update to rewrite it when a change moves them on purpose.
func TestScheduleGolden(t *testing.T) {
	var got bytes.Buffer
	for seed := int64(0); seed < goldenSchedules; seed++ {
		wheel := runSchedule(seed)
		if heap := runSchedule(seed, simclock.WithHeapTimers()); heap != wheel {
			t.Fatalf("schedule %d differs between the timer stores:\nwheel:\n%s\nheap:\n%s", seed, wheel, heap)
		}
		got.WriteString(wheel)
	}
	path := filepath.Join("testdata", "schedules.golden")
	if *updateSchedules {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl, wl)
		}
	}
}
