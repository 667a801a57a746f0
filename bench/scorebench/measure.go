package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"score/internal/simclock"
)

// procStart approximates process start: package initialisation runs
// before main, a few hundred microseconds after exec.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one child-process run of one workload.
type runConfig struct {
	w        workload
	seed     int64
	seconds  int
	trace    bool
	gpuCache int64 // selfcheck (b); 0 keeps 4 GiB
	outDir   string
	tiny     bool // unit-test smoke: one tiny shot per phase, host speed taken as reference
}

// calibration calibrates the host, except in the unit-test smoke, whose
// host times nobody reads.
func (rc runConfig) calibration() float64 {
	if rc.tiny {
		return 1
	}
	return calibrate()
}

// benchProcs is the GOMAXPROCS every run uses: min(nproc, 4).
func benchProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// rusage reads the process's own resource usage; on the Linux hosts the
// benchmark runs on the call cannot fail, and a zero reading would show
// as a zero metric.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident high-water mark (the VmHWM line of
// /proc/self/status, read through getrusage).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// setUp is everything between process start and the first measured shot:
// generating every shot's trace, the real-payload verification shot and
// a warm-up shot. A run sets up setupReps times, so three warm-up shots
// and three verification shots precede the first measured one. It
// returns the measured shots' inputs.
func setUp(rc runConfig, shots int) ([]shotInput, error) {
	w := rc.w
	inputs, err := makeInputs(w, rc.seed, shots)
	if err != nil {
		return nil, err
	}
	v := w.verifyScale()
	acc := newAccum()
	if err := runShot(w, makeVerifyInput(w, v, rc.seed), shotOptions{verify: &v}, acc); err != nil {
		return nil, fmt.Errorf("verification shot: %w", err)
	}
	if acc.failed > 0 {
		return nil, fmt.Errorf("verification shot: %d of %d operations failed: %s",
			acc.failed, acc.attempted, acc.firstFailure)
	}
	// The warm-up trace comes from a seed no measured run uses.
	warm, err := makeInputs(w, -rc.seed-1, 1)
	if err != nil {
		return nil, err
	}
	if err := runShot(w, warm[0], shotOptions{gpuCache: rc.gpuCache}, newAccum()); err != nil {
		return nil, fmt.Errorf("warm-up shot: %w", err)
	}
	return inputs, nil
}

// hostSamples are per-shot host costs, measured around runShot with a
// forced GC before each shot and outside the timed region. With
// calibrated set, a calibration runs before every shot and after the
// last; the traced pass leaves them out, since it reports no host time
// and they would show up in its profile.
type hostSamples struct {
	wall, cpu     []float64 // seconds
	allocs, bytes []float64
	wakeups       uint64
	slow          []float64 // calibrations interleaved with the shots
}

// slowdown is how much slower than reference the host ran during these
// shots; host times are divided by it.
func (hs hostSamples) slowdown() float64 { return median(hs.slow) }

func measureShots(rc runConfig, inputs []shotInput, opt shotOptions, acc *accum, calibrated bool) (hostSamples, error) {
	var hs hostSamples
	var ms0, ms1 runtime.MemStats
	for _, in := range inputs {
		if calibrated {
			hs.slow = append(hs.slow, rc.calibration())
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		ev0, cpu0, t0 := simclock.EventCount(), cpuTime(), time.Now()
		err := runShot(rc.w, in, opt, acc)
		wall, cpu, ev1 := time.Since(t0), cpuTime()-cpu0, simclock.EventCount()
		if err != nil {
			return hs, err
		}
		runtime.ReadMemStats(&ms1)
		hs.wall = append(hs.wall, wall.Seconds())
		hs.cpu = append(hs.cpu, cpu.Seconds())
		hs.allocs = append(hs.allocs, float64(ms1.Mallocs-ms0.Mallocs))
		hs.bytes = append(hs.bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		hs.wakeups += ev1 - ev0
	}
	if calibrated {
		hs.slow = append(hs.slow, rc.calibration())
	}
	return hs, nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// run executes one workload run and returns the result to print.
func run(rc runConfig) (result, error) {
	procs := benchProcs()
	runtime.GOMAXPROCS(procs)

	shots := rc.w.shots(rc.seconds)
	nRef, nTraced := tracedShots(shots)
	reps := setupReps
	if rc.tiny {
		shots, nRef, nTraced, reps = 1, 1, 1, 1
		rc.w = rc.w.tiny()
	}
	if rc.trace {
		shots = nRef + nTraced
	}
	var inputs []shotInput
	var setups []float64
	start, before := procStart, rc.calibration()
	for i := 0; i < reps; i++ {
		var err error
		if inputs, err = setUp(rc, shots); err != nil {
			return result{}, err
		}
		took := time.Since(start).Seconds()
		after := rc.calibration()
		setups = append(setups, took/((before+after)/2))
		start, before = time.Now(), after
	}
	setupS := median(setups)
	fmt.Fprintf(os.Stderr, "%s: seed %d, GOMAXPROCS %d, %d ranks, %d measured shots, set-up %.3f s (of %d)\n",
		rc.w.Name, rc.seed, procs, rc.w.ranks(), shots, setupS, reps)

	if rc.trace {
		return runTraced(rc, inputs[:nRef], inputs[nRef:])
	}

	acc := newAccum()
	hs, err := measureShots(rc, inputs, shotOptions{gpuCache: rc.gpuCache}, acc, true)
	if err != nil {
		return result{}, err
	}
	ops := float64(acc.ckpts + acc.restores)
	n := float64(acc.shots)
	gb := func(bytes int64, blocked time.Duration) float64 {
		return float64(bytes) / blocked.Seconds() / 1e9
	}
	res := result{Correct: acc.failed == 0, Attempted: acc.attempted, Failed: acc.failed,
		Metrics: map[string]metric{
			"sim_ckpt_gbps":              {gb(acc.ckptBytes, acc.ckptBlocked), "GB/s"},
			"sim_restore_gbps":           {gb(acc.restBytes, acc.restBlocked), "GB/s"},
			"sim_io_wait_s":              {(acc.ckptBlocked + acc.restBlocked).Seconds() / n, "s"},
			"sim_makespan_s":             {acc.makespan.Seconds() / n, "s"},
			"sim_restore_block_p99_ms":   {float64(percentile(acc.restoreNs, 99)) / 1e6, "ms"},
			"sim_time_to_durable_p99_ms": {float64(percentile(acc.durableNs, 99)) / 1e6, "ms"},
			"wall_s":                     {sum(hs.wall) / hs.slowdown(), "s"},
			"cpu_s":                      {sum(hs.cpu) / hs.slowdown(), "s"},
			"allocs_per_shot":            {sum(hs.allocs) / n, "count"},
			"alloc_mb_per_shot":          {sum(hs.bytes) / n / (1 << 20), "MB"},
			"wakeups_per_op":             {float64(hs.wakeups) / ops, "count"},
			"peak_rss_mb":                {peakRSSMB(), "MB"},
			"setup_s":                    {setupS, "s"},
		}}
	q1, med, q3 := quartiles(hs.wall)
	c1, cmed, c3 := quartiles(hs.slow)
	fmt.Fprintf(os.Stderr, "%s: raw wall %.3f s, cpu %.3f s; host ran %.3fx slower than reference (calibration quartiles %.3f, %.3f)\n",
		rc.w.Name, sum(hs.wall), sum(hs.cpu), cmed, c1, c3)
	fmt.Fprintf(os.Stderr, "%s: wall per shot median %.4f s (quartiles %.4f, %.4f), %d restore and %d durable records, P50 %.3f / %.3f ms\n",
		rc.w.Name, med, q1, q3, len(acc.restoreNs), len(acc.durableNs),
		float64(percentile(acc.restoreNs, 50))/1e6, float64(percentile(acc.durableNs, 50))/1e6)
	acc.reportFailures(rc.w.Name)
	return res, nil
}
