// Package layers holds the isolated layer drivers: each times calls into
// one layer's exported functions on a fixed op stream, repeats the
// stream, and reports the median per-op cost. They complement the
// profile shares of the traced run: a share says where a workload's
// host time went, a driver says what one operation of that layer costs
// with nothing else running.
package layers

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"score"
	"score/internal/cachebuf"
	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/rtm"
	"score/internal/simclock"
	"score/internal/slo"
	"score/internal/trace"
)

// Metric is one driver result.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Reps is how often every driver repeats its op stream; the reported
// value is the median repetition.
const Reps = 21

// stream runs one op stream and returns the number of operations in it.
// timed is the part of the call that counts; zero means all of it.
type stream func() (ops int, timed time.Duration, err error)

type driver struct {
	name  string
	unit  string // "ns", "us" or "ms" per op
	alloc string // when set, also report allocations per op under this name
	// setup builds the stream's state outside the timed region.
	setup func() stream
}

func perOp(d time.Duration, ops int, unit string) float64 {
	ns := float64(d.Nanoseconds()) / float64(ops)
	switch unit {
	case "us":
		return ns / 1e3
	case "ms":
		return ns / 1e6
	}
	return ns
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// Run executes every driver reps times and returns the medians.
func Run(reps int) ([]Metric, error) {
	var out []Metric
	for _, d := range drivers {
		times := make([]float64, 0, reps)
		allocs := make([]float64, 0, reps)
		var ms0, ms1 runtime.MemStats
		for i := 0; i < reps; i++ {
			run := d.setup()
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			ops, el, err := run()
			if el == 0 {
				el = time.Since(t0)
			}
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, fmt.Errorf("layers: %s: %w", d.name, err)
			}
			times = append(times, perOp(el, ops, d.unit))
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(ops))
		}
		out = append(out, Metric{d.name, median(times), d.unit})
		if d.alloc != "" {
			out = append(out, Metric{d.alloc, median(allocs), "count"})
		}
	}
	return out, nil
}

// firstErr keeps the first error the tasks of one stream report.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// inSim runs fn as the root task of a fresh virtual clock.
func inSim(fn func(clk *simclock.Virtual)) {
	clk := simclock.NewVirtual()
	clk.Run(func() { fn(clk) })
}

// fanOut runs tasks copies of body as clock tasks and joins them.
func fanOut(clk *simclock.Virtual, tasks int, body func(task int)) {
	wg := simclock.NewWaitGroup(clk)
	for t := 0; t < tasks; t++ {
		t := t
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			body(t)
		})
	}
	wg.Wait()
}

// stateless wraps a stream that needs no set-up.
func stateless(run stream) func() stream { return func() stream { return run } }

// evictable is an eviction oracle under which every resident fragment
// may go at once, so a reservation's cost is window selection alone.
type evictable struct{}

func (evictable) Evictable(cachebuf.ID) bool                        { return true }
func (evictable) TimeToEvictable(cachebuf.ID) (time.Duration, bool) { return 0, true }
func (evictable) PrefetchDistance(id cachebuf.ID) int               { return int(id) * 2654435761 % 4096 }
func (evictable) Evicted(cachebuf.ID)                               {}

// reserveEvicting fills a 4 GiB buffer with variable-size fragments (the
// ~96 residents of an RTM shot's GPU cache) and keeps reserving, so all
// but the first reservations must select and evict a window.
func reserveEvicting(policy cachebuf.Policy) func() stream {
	return stateless(func() (int, time.Duration, error) {
		const ops = 2000
		var ferr firstErr
		inSim(func(clk *simclock.Virtual) {
			b := cachebuf.New(clk, "driver", 4<<30, evictable{})
			defer b.Close()
			if err := b.SetPolicy(policy); err != nil {
				ferr.set(err)
				return
			}
			for i := 0; i < ops; i++ {
				if _, err := b.Reserve(cachebuf.ID(i), int64(24+(i*37)%40)<<20); err != nil {
					ferr.set(err)
					return
				}
			}
		})
		return ops, 0, ferr.err
	})
}

// coreStream drives one rank through the public API: 256 back-to-back
// checkpoints and a drain, then (timeRestore) the restores, restoreGap
// of simulated compute apart, which are then the only part timed.
func coreStream(hinted, timeRestore bool) func() stream {
	return stateless(func() (int, time.Duration, error) {
		const versions = 256
		sim, err := score.NewSim(score.WithGPUsPerNode(1))
		if err != nil {
			return 0, 0, err
		}
		var timed time.Duration
		sim.Run(func() {
			var c *score.Client
			if c, err = sim.NewClient(0, 0, score.WithAsyncHostInit()); err != nil {
				return
			}
			defer c.Close()
			order := rtm.Irregular
			if hinted {
				order = rtm.Reverse
			}
			seq := order.Sequence(versions, 7)
			if hinted {
				for _, v := range seq {
					c.PrefetchEnqueue(int64(v))
				}
			}
			for v := 0; v < versions; v++ {
				if err = c.CheckpointVirtual(int64(v), 64<<20); err != nil {
					return
				}
			}
			if err = c.WaitFlush(); err != nil || !timeRestore {
				return
			}
			t0 := time.Now()
			c.PrefetchStart()
			for _, v := range seq {
				if _, err = c.Restart(int64(v)); err != nil {
					return
				}
				c.Compute(restoreGap)
			}
			timed = time.Since(t0)
		})
		return versions, timed, err
	})
}

// restoreGap is the simulated compute between a core driver's restores.
// It costs no host time beyond one timer wake, and it is not optional:
// with no gap at all, the cold (unhinted, irregular) restore pass wedges
// the virtual clock within some fifty repetitions ("deadlock: 2 task(s)
// blocked in Cond waits with no pending timers at t=9.5095s"), a repo
// defect this benchmark must not trip over. With the paper's 10 ms gap
// 900 repetitions ran clean.
const restoreGap = 10 * time.Millisecond

// tick returns a clock function that advances a microsecond per reading.
func tick() func() time.Duration {
	var now time.Duration
	return func() time.Duration { now += time.Microsecond; return now }
}

var drivers = []driver{
	{name: "simclock.sleep_wake_ns", unit: "ns", alloc: "simclock.sleep_wake_allocs",
		setup: stateless(func() (int, time.Duration, error) {
			const tasks, sleeps = 8, 2000
			inSim(func(clk *simclock.Virtual) {
				fanOut(clk, tasks, func(t int) {
					for i := 0; i < sleeps; i++ {
						clk.Sleep(time.Duration(1+t) * time.Microsecond)
					}
				})
			})
			return tasks * sleeps, 0, nil
		})},
	{name: "simclock.cond_handoff_ns", unit: "ns", setup: stateless(func() (int, time.Duration, error) {
		const handoffs = 10000
		inSim(func(clk *simclock.Virtual) {
			var mu sync.Mutex
			cond := clk.NewCond(&mu)
			turn := 0
			fanOut(clk, 2, func(t int) {
				mu.Lock()
				for i := 0; i < handoffs/2; i++ {
					for turn != t {
						cond.Wait()
					}
					turn = 1 - t
					cond.Signal()
				}
				mu.Unlock()
			})
		})
		return handoffs, 0, nil
	})},
	{name: "simclock.barrier_await_ns", unit: "ns", setup: stateless(func() (int, time.Duration, error) {
		const parties, rounds = 512, 20
		inSim(func(clk *simclock.Virtual) {
			b := simclock.NewBarrier(clk, parties)
			fanOut(clk, parties, func(int) {
				for i := 0; i < rounds; i++ {
					b.Await()
				}
			})
		})
		return parties * rounds, 0, nil
	})},
	{name: "fabric.transfer_solo_ns", unit: "ns", alloc: "fabric.transfer_allocs",
		setup: stateless(func() (int, time.Duration, error) {
			const transfers = 5000
			var ferr firstErr
			inSim(func(clk *simclock.Virtual) {
				l := fabric.NewLink(clk, "solo", 25*fabric.GB, 10*time.Microsecond)
				for i := 0; i < transfers; i++ {
					_, err := l.TryTransfer(8 << 20)
					ferr.set(err)
				}
			})
			return transfers, 0, ferr.err
		})},
	{name: "fabric.transfer_contended_ns", unit: "ns", setup: stateless(func() (int, time.Duration, error) {
		const tasks, each = 256, 20
		var ferr firstErr
		inSim(func(clk *simclock.Virtual) {
			l := fabric.NewLink(clk, "shared", 25*fabric.GB, 10*time.Microsecond)
			fanOut(clk, tasks, func(t int) {
				for i := 0; i < each; i++ {
					_, err := l.TryTransfer(int64(4+t%8) << 20)
					ferr.set(err)
				}
			})
		})
		return tasks * each, 0, ferr.err
	})},
	{name: "fabric.pipelined_hop_ns", unit: "ns", setup: stateless(func() (int, time.Duration, error) {
		const streams, chunks, hops = 400, 8, 2
		var ferr firstErr
		inSim(func(clk *simclock.Virtual) {
			p := fabric.Path{
				fabric.NewLink(clk, "pcie", 25*fabric.GB, 10*time.Microsecond),
				fabric.NewLink(clk, "nvme", 16*fabric.GB, 10*time.Microsecond),
			}
			for i := 0; i < streams; i++ {
				_, err := p.TryPipelined(chunks*(16<<20), 16<<20)
				ferr.set(err)
			}
		})
		return streams * chunks * hops, 0, ferr.err
	})},
	{name: "cachebuf.reserve_free_ns", unit: "ns", setup: stateless(func() (int, time.Duration, error) {
		const rounds, resident = 40, 64
		var ferr firstErr
		inSim(func(clk *simclock.Virtual) {
			b := cachebuf.New(clk, "driver", 4<<30, evictable{})
			defer b.Close()
			for r := 0; r < rounds; r++ {
				for i := 0; i < resident; i++ {
					_, err := b.Reserve(cachebuf.ID(i), 32<<20)
					ferr.set(err)
				}
				for i := 0; i < resident; i++ {
					b.Release(cachebuf.ID(i))
				}
			}
		})
		return rounds * resident, 0, ferr.err
	})},
	{name: "cachebuf.reserve_evict_score_ns", unit: "ns", setup: reserveEvicting(cachebuf.PolicyScore)},
	{name: "cachebuf.reserve_evict_lru_ns", unit: "ns", setup: reserveEvicting(cachebuf.PolicyLRU)},
	{name: "lifecycle.transition_ns", unit: "ns", setup: stateless(func() (int, time.Duration, error) {
		const cycles = 20000
		var ferr firstErr
		inSim(func(clk *simclock.Virtual) {
			m := lifecycle.NewMachine(clk)
			for _, to := range []lifecycle.State{lifecycle.WriteInProgress, lifecycle.WriteComplete, lifecycle.Flushed} {
				ferr.set(m.To(to))
			}
			for i := 0; i < cycles; i++ {
				ferr.set(m.To(lifecycle.ReadComplete))
				ferr.set(m.To(lifecycle.Consumed))
			}
		})
		return 3 + 2*cycles, 0, ferr.err
	})},
	{name: "core.ckpt_pipeline_us", unit: "us", setup: coreStream(true, false)},
	{name: "core.restore_hinted_us", unit: "us", setup: coreStream(true, true)},
	{name: "core.restore_cold_us", unit: "us", setup: coreStream(false, true)},
	{name: "metrics.hist_observe_ns", unit: "ns", setup: func() stream {
		h := metrics.NewHistogram()
		return func() (int, time.Duration, error) {
			const obs = 200000
			for i := 0; i < obs; i++ {
				h.Observe(time.Duration(i%5000) * time.Microsecond)
			}
			return obs, 0, nil
		}
	}},
	{name: "metrics.snapshot_us", unit: "us", setup: func() stream {
		// One rank's recorder after a 384-snapshot shot.
		rec := metrics.NewRecorder()
		for i := 0; i < 384; i++ {
			d := time.Duration(i+1) * time.Millisecond
			rec.Checkpoint(128<<20, d)
			rec.Restore(i, 128<<20, d, i%8)
			for _, op := range []string{metrics.CritDurable, metrics.CritRestore} {
				rec.CritPath(metrics.CritPathRecord{Op: op, Version: int64(i), Total: d,
					Components: map[string]time.Duration{metrics.CompXferPCIe: d / 2, metrics.CompXferSSD: d / 2}})
			}
		}
		return func() (int, time.Duration, error) {
			const snaps = 20
			for i := 0; i < snaps; i++ {
				_ = rec.Snapshot()
			}
			return snaps, 0, nil
		}
	}},
	{name: "trace.span_ns", unit: "ns", setup: func() stream {
		tr := trace.New(tick())
		return func() (int, time.Duration, error) {
			const spans = 50000
			for i := 0; i < spans; i++ {
				tr.Span(i%8, trace.TrackApp, "checkpoint", "checkpoint")()
			}
			return spans, 0, nil
		}
	}},
	{name: "trace.ledger_record_ns", unit: "ns", setup: func() stream {
		fl := trace.NewFlightRecorder(tick(), 4096)
		return func() (int, time.Duration, error) {
			const events = 50000
			for i := 0; i < events; i++ {
				fl.Record(i%8, int64(i), trace.LCached, "gpu", "")
			}
			return events, 0, nil
		}
	}},
	{name: "trace.export_ms", unit: "ms", setup: func() stream {
		tr := trace.New(tick())
		for i := 0; i < 20000; i++ {
			tr.Span(i%8, trace.Track(i%5), "flush", "flush")()
		}
		return func() (int, time.Duration, error) {
			return 1, 0, tr.WriteJSON(io.Discard)
		}
	}},
	{name: "slo.observe_ns", unit: "ns", setup: func() stream {
		var now time.Duration
		eng, err := slo.NewEngine(func() time.Duration { return now }, slo.ShotObjectives()...)
		return func() (int, time.Duration, error) {
			if err != nil {
				return 0, 0, err
			}
			const obs = 50000
			comps := map[string]time.Duration{metrics.CompXferSSD: time.Millisecond}
			for i := 0; i < obs; i++ {
				now += 100 * time.Microsecond
				eng.ObserveCritPath(metrics.CritPathRecord{Op: metrics.CritRestore, Start: now,
					Total: time.Millisecond, Components: comps})
			}
			eng.Finalize()
			return obs, 0, nil
		}
	}},
	{name: "rtm.generate_shot_us", unit: "us", setup: func() stream {
		cfg := rtm.DefaultTraceConfig()
		return func() (int, time.Duration, error) {
			const shots = 64
			for r := 0; r < shots; r++ {
				if _, err := rtm.GenerateShot(cfg, r); err != nil {
					return 0, 0, err
				}
			}
			return shots, 0, nil
		}
	}},
}
