package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"score"
	"score/internal/metrics"
	"score/internal/slo"
)

const computeInterval = 10 * time.Millisecond // paper default between operations

// accum pools what shots report through Client.MetricsSummary, Stats and
// the Sim, across ranks and shots.
type accum struct {
	shots                    int
	makespan                 time.Duration
	ckptBytes, restBytes     int64
	ckptBlocked, restBlocked time.Duration
	ckpts, restores          int64 // API calls made
	attempted, failed        int64
	firstFailure             string
	restoreNs, durableNs     []int64 // every CritRestore / CritDurable record's Total

	// Counts at the API boundary, used by the traced run.
	durable, restore                 map[string]time.Duration
	durableTotal, restoreTotal       time.Duration
	gpuServed                        int64
	syncFlushes, deviations          int64
	evictWait                        time.Duration
	prefetchDistSum                  float64
	clients                          int64
	pipeHopBusy, pipeElapsed         time.Duration
	pipeStreams                      int64
	critRecords                      int64
	traceEvents, traceDropped, fired int64
	unattributed                     time.Duration
}

func newAccum() *accum {
	return &accum{durable: map[string]time.Duration{}, restore: map[string]time.Duration{}}
}

func (a *accum) fail(format string, args ...any) {
	a.failed++
	if a.firstFailure == "" {
		a.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (a *accum) reportFailures(workload string) {
	if a.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed: %s\n", workload, a.failed, a.attempted, a.firstFailure)
	}
}

// shotOptions are the knobs outside the workload definition.
type shotOptions struct {
	verify   *verifyScale // real-payload shot at this scale
	gpuCache int64        // selfcheck (b) overrides the 4 GiB reservation
	rec      *recorder    // nil when untraced
	parent   int32        // the workload span
}

// runShot drives one full shot through the public API: it builds a Sim
// and one Client per rank, runs the Listing-1 loop on every rank, and
// folds each client's summary into acc.
func runShot(w workload, in shotInput, opt shotOptions, acc *accum) error {
	gpuCache, hostCache, chunk := int64(gpuCacheBytes), int64(hostCacheBytes), w.Chunk
	if opt.gpuCache > 0 {
		gpuCache = opt.gpuCache
	}
	if v := opt.verify; v != nil {
		gpuCache, hostCache, chunk = v.gpuCache, v.hostC, v.chunk
	}
	copts := []score.ClientOption{
		score.WithGPUCache(gpuCache), score.WithHostCache(hostCache), score.WithAsyncHostInit(),
	}
	if !w.Drain {
		copts = append(copts, score.WithDiscardAfterRestore()) // adjoint: consumed once
	}
	if w.Direct {
		copts = append(copts, score.WithGPUDirect())
	}
	if chunk > 0 {
		copts = append(copts, score.WithChunkSize(chunk))
	}
	sopts := []score.Option{score.WithNodes(w.Nodes), score.WithGPUsPerNode(gpusPerNode)}
	if w.Observed {
		sopts = append(sopts, score.WithTracing(), score.WithSampling(computeInterval))
	}

	hl := opt.rec.harness()
	shotMark := hl.begin(nil)
	sim, err := score.NewSim(sopts...)
	if err != nil {
		return err
	}
	var eng *slo.Engine
	if w.Observed {
		if eng, err = sim.NewSLOEngine(slo.ShotObjectives()...); err != nil {
			return err
		}
		copts = append(copts, score.WithSLO(eng))
	}

	ranks, n := w.ranks(), len(in.sizes[0])
	clients := make([]*score.Client, ranks)
	var setupErr error
	var failures atomic.Int64
	failMsgs := make([]string, ranks)
	sim.Run(func() {
		clk := sim.Clock()
		defer func() {
			for r, c := range clients {
				if c != nil {
					m := opt.rec.rank(r).begin(clk)
					c.Close()
					opt.rec.rank(r).end(spanClose, -1, shotMark.id, m, clk)
				}
			}
		}()
		for r := range clients {
			m := opt.rec.rank(r).begin(clk)
			clients[r], setupErr = sim.NewClient(r/gpusPerNode, r%gpusPerNode, copts...)
			if setupErr != nil {
				return
			}
			opt.rec.rank(r).end(spanNewClient, -1, shotMark.id, m, clk)
		}
		// The tightly-coupled barrier is one WaitGroup per iteration:
		// each rank checks in, then waits for the rest.
		var barriers []*score.WaitGroup
		if w.Coupled {
			barriers = make([]*score.WaitGroup, 2*n+1)
			for i := range barriers {
				barriers[i] = sim.NewWaitGroup()
				barriers[i].Add(ranks)
			}
		}
		wg := sim.NewWaitGroup()
		for r := range clients {
			r := r
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				bad, msg := runRank(w, in, r, clients[r], clk, barriers, opt.rec.rank(r), shotMark.id)
				failures.Add(bad)
				failMsgs[r] = msg
			})
		}
		wg.Wait()
		acc.makespan += clk.Now()

		if eng != nil {
			eng.Finalize()
			for _, o := range eng.Report().Objectives {
				acc.fired += o.Fired
			}
		}
		for r, c := range clients {
			acc.attempted++
			if err := c.Err(); err != nil {
				acc.fail("rank %d async: %v", r, err)
				continue
			}
			// A drained shot emptied its queues mid-run, so it can be
			// held to the quiescent invariants after one more drain; an
			// immediate-restore shot may still hold pinned prefetches.
			if w.Drain {
				if err := c.WaitFlush(); err != nil {
					acc.fail("rank %d final drain: %v", r, err)
					continue
				}
			}
			if err := c.CheckMetricsInvariants(w.Drain); err != nil {
				acc.fail("rank %d invariants: %v", r, err)
				continue
			}
			m := opt.rec.rank(r).begin(clk)
			sum := c.MetricsSummary()
			opt.rec.rank(r).end(spanMetricsSummary, -1, shotMark.id, m, clk)
			acc.addSummary(sum, c.Stats())
			if sum.CritPathUnattributed() != 0 {
				acc.fail("rank %d: %v of latency unattributed", r, sum.CritPathUnattributed())
			}
		}
	})
	if setupErr != nil {
		return setupErr
	}
	if w.Observed {
		m := hl.begin(nil)
		if err := sim.WriteTrace(io.Discard); err != nil {
			return err
		}
		hl.end(spanWriteTrace, -1, shotMark.id, m, nil)
		acc.traceEvents += int64(sim.Tracer().Len())
		ev, _ := sim.Tracer().Dropped()
		acc.traceDropped += ev
	}
	hl.end(spanShot, -1, opt.parent, shotMark, nil)

	perRank := int64(2 * n)
	if w.Drain {
		perRank++
	}
	acc.shots++
	acc.ckpts += int64(ranks * n)
	acc.restores += int64(ranks * n)
	acc.attempted += int64(ranks) * perRank
	acc.failed += failures.Load()
	for _, msg := range failMsgs {
		if msg != "" && acc.firstFailure == "" {
			acc.firstFailure = msg
		}
	}
	return nil
}

// runRank is the paper's Listing 1 for one process: hints, forward pass
// (compute, checkpoint), optional drain, prefetch start, backward pass
// (size query, restart, compute). A failed operation is counted and the
// loop carries on, so a coupled shot still reaches every barrier.
func runRank(w workload, in shotInput, rank int, c *score.Client, clk score.Clock,
	barriers []*score.WaitGroup, l *lane, parent int32) (failed int64, first string) {
	fail := func(format string, args ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf("rank %d: ", rank) + fmt.Sprintf(format, args...)
		}
	}
	await := func(i int) {
		if barriers != nil {
			barriers[i].Done()
			barriers[i].Wait()
		}
	}
	sizes, order := in.sizes[rank], in.orders[rank]
	n := len(sizes)

	if w.Hints {
		for _, v := range order {
			m := l.begin(clk)
			c.PrefetchEnqueue(int64(v))
			l.end(spanPrefetchEnqueue, int64(v), parent, m, clk)
		}
	}
	for i := 0; i < n; i++ {
		c.Compute(computeInterval)
		var err error
		m := l.begin(clk)
		if in.pool != nil {
			err = c.Checkpoint(int64(i), in.payload(rank, i))
		} else {
			err = c.CheckpointVirtual(int64(i), sizes[i])
		}
		l.end(spanCheckpoint, int64(i), parent, m, clk)
		if err != nil {
			fail("checkpoint %d: %v", i, err)
		}
		await(i)
	}
	if w.Drain {
		m := l.begin(clk)
		err := c.WaitFlush()
		l.end(spanWaitFlush, -1, parent, m, clk)
		if err != nil {
			fail("wait flush: %v", err)
		}
		await(2 * n)
	}
	c.PrefetchStart()
	for k, v := range order {
		m := l.begin(clk)
		size, err := c.RestartSize(int64(v))
		var data []byte
		if err == nil {
			data, err = c.Restart(int64(v))
		}
		l.end(spanRestart, int64(v), parent, m, clk)
		switch {
		case err != nil:
			fail("restart %d: %v", v, err)
		case size != sizes[v]:
			fail("restart %d: size %d, wrote %d", v, size, sizes[v])
		case in.pool != nil && !bytes.Equal(data, in.payload(rank, v)):
			fail("restart %d: restored bytes differ from the checkpoint", v)
		}
		c.Compute(computeInterval)
		await(n + k)
	}
	return failed, first
}

// gpuMissComps are the restore components that mean the bytes were not
// on the GPU when the application asked.
var gpuMissComps = []string{
	metrics.CompXferPCIe, metrics.CompXferSSD, metrics.CompXferPFS, metrics.CompXferPartner,
	metrics.CompPromoteWait, metrics.CompHostAdmit,
}

func (a *accum) addSummary(s metrics.Summary, st score.Stats) {
	a.ckptBytes += s.CheckpointBytes
	a.restBytes += s.RestoreBytes
	a.ckptBlocked += s.CheckpointBlocked
	a.restBlocked += s.RestoreBlocked
	a.syncFlushes += s.SyncFlushes
	a.deviations += s.DeviationReads
	a.evictWait += s.EvictionWait
	a.prefetchDistSum += st.MeanPrefetchDistance
	a.clients++
	a.pipeHopBusy += s.PipelinedHopBusy
	a.pipeElapsed += s.PipelinedElapsed
	a.pipeStreams += s.PipelinedStreams
	a.critRecords += int64(len(s.CritPaths))
	a.unattributed += s.CritPathUnattributed()
	for _, rec := range s.CritPaths {
		switch rec.Op {
		case metrics.CritRestore:
			a.restoreNs = append(a.restoreNs, int64(rec.Total))
			a.restoreTotal += rec.Total
			miss := false
			for _, c := range gpuMissComps {
				miss = miss || rec.Components[c] > 0
			}
			if !miss {
				a.gpuServed++
			}
			for c, d := range rec.Components {
				a.restore[c] += d
			}
		case metrics.CritDurable:
			a.durableNs = append(a.durableNs, int64(rec.Total))
			a.durableTotal += rec.Total
			for c, d := range rec.Components {
				a.durable[c] += d
			}
		}
	}
}
