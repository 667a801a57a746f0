package fabric

import (
	"sync"
	"time"

	"score/internal/simclock"
)

// PipelineStats describes one (possibly pipelined) multi-hop transfer.
type PipelineStats struct {
	// Bytes is the payload size requested.
	Bytes int64
	// Chunks is the number of pieces the payload was split into (1 when
	// the transfer degenerated to a monolithic store-and-forward).
	Chunks int
	// Duration is the end-to-end simulated time from the first chunk
	// entering the first hop to the last chunk leaving the last hop.
	Duration time.Duration
	// HopBusy is the summed transfer time charged on each hop, indexed
	// like the Path. With no pipelining their sum equals Duration; with
	// overlap the sum exceeds it.
	HopBusy []time.Duration
	// HopBytes is the payload successfully carried by each hop, indexed
	// like the Path. On an error-free stream every entry equals Bytes —
	// the conservation invariant metrics.CheckInvariants enforces.
	HopBytes []int64
}

// HopBusySum returns the total per-hop occupancy across all hops.
func (s PipelineStats) HopBusySum() time.Duration {
	var sum time.Duration
	for _, d := range s.HopBusy {
		sum += d
	}
	return sum
}

// Overlap returns the simulated transfer time hidden by pipelining: the
// summed per-hop busy time minus the end-to-end duration, clamped at
// zero. A monolithic store-and-forward transfer has zero overlap.
func (s PipelineStats) Overlap() time.Duration {
	if sum := s.HopBusySum(); sum > s.Duration {
		return sum - s.Duration
	}
	return 0
}

// pipeline is the shared state of one chunked multi-hop transfer. The
// caller's task feeds hop 0; every downstream hop is an event (hop) that
// drains its queue. All handoff between hops goes through the
// cond-guarded queues: an idle hop parks its event among cond's waiters
// and the caller waits there for the last hop to exit, so one Broadcast
// readies them in the order they parked.
type pipeline struct {
	path Path

	mu   sync.Mutex
	cond simclock.Cond

	// queues[h] holds the chunk sizes forwarded to hop h but not yet
	// transferred; heads[h] is the consumption cursor (the backing
	// arrays are bounded by the chunk count and die with the pipeline,
	// so no compaction is needed).
	queues [][]int64
	heads  []int
	// closed[h] means no more chunks will ever be appended to
	// queues[h]: the upstream stage has finished or aborted.
	closed []bool
	// busy and bytes accumulate per-hop transfer time and payload
	// (aliasing the caller's PipelineStats.HopBusy / HopBytes).
	busy  []time.Duration
	bytes []int64
	// err is the first hop failure; once set, every stage aborts
	// without charging further transfers.
	err error
	// running counts downstream hops that have not exited.
	running int
	// hops[h] is downstream hop h's event state; hops[0] is unused.
	hops []*hop
	// drained is the caller's WaitFor predicate, built once per record.
	drained func() bool

	// condClk remembers which clock cond and the hop events were built
	// for, so a pooled pipeline reused under the same clock keeps them
	// (the mutex cond wraps lives in this struct and is stable across
	// reuses).
	condClk simclock.Clock
}

// hop is downstream hop h of a pipeline. Its work runs where the hop's
// task used to be resumed: its own event runs when the hop starts and when
// a Broadcast readies it idle, and the event of the transfer carrying its
// chunk hands over to it (collect) when the chunk completes or fails.
type hop struct {
	ps   *pipeline
	h    int
	ev   simclock.Event
	t0   time.Duration // when the chunk in flight was asked for
	ferr error         // the interceptor's error for it
}

// pipelinePool recycles pipeline records between streams. A chunked
// multi-rank run creates one pipeline per flush/stage/restore stream;
// reuse keeps the queue backing arrays, the cond and the hop events out
// of the per-stream bill.
var pipelinePool = sync.Pool{New: func() any {
	ps := new(pipeline)
	ps.drained = func() bool { return ps.running == 0 }
	return ps
}}

// getPipeline returns a reset pipeline for path whose busy/bytes
// accumulators alias the caller's stats arrays.
func getPipeline(clk simclock.Clock, path Path, busy []time.Duration, bytes []int64) *pipeline {
	ps := pipelinePool.Get().(*pipeline)
	nHops := len(path)
	ps.path = path
	if cap(ps.queues) < nHops {
		ps.queues = make([][]int64, nHops)
		ps.heads = make([]int, nHops)
		ps.closed = make([]bool, nHops)
	} else {
		ps.queues = ps.queues[:nHops]
		ps.heads = ps.heads[:nHops]
		ps.closed = ps.closed[:nHops]
		for h := 0; h < nHops; h++ {
			ps.queues[h] = ps.queues[h][:0]
			ps.heads[h] = 0
			ps.closed[h] = false
		}
	}
	ps.busy, ps.bytes = busy, bytes
	ps.err = nil
	ps.running = 0
	if ps.condClk != clk {
		ps.cond = clk.NewCond(&ps.mu)
		ps.hops = ps.hops[:0]
		ps.condClk = clk
	}
	for h := len(ps.hops); h < nHops; h++ {
		hp := &hop{ps: ps, h: h}
		clk.InitEvent(&hp.ev, hp)
		ps.hops = append(ps.hops, hp)
	}
	return ps
}

// putPipeline returns ps to the pool. Callers must only do this after
// every hop has exited (running == 0): an exited hop's event is parked
// nowhere. The caller-owned stats arrays are dropped so the pool never
// retains them.
func putPipeline(ps *pipeline) {
	ps.path = nil
	ps.busy, ps.bytes = nil, nil
	ps.err = nil
	pipelinePool.Put(ps)
}

// TryPipelinedTransfer moves size bytes across the path in chunkSize
// pieces with consecutive hops overlapped, returning the end-to-end
// simulated duration and the first hop error, if any.
func (p Path) TryPipelinedTransfer(size, chunkSize int64) (time.Duration, error) {
	st, err := p.TryPipelined(size, chunkSize)
	return st.Duration, err
}

// TryPipelined streams size bytes through the path's hops as a pipeline
// of chunkSize pieces: chunk i moves on hop h+1 while chunk i+1 moves on
// hop h. Within the stream each hop carries at most one chunk at a time,
// so the stream occupies a single fair-share slot on every link — two
// concurrent streams crossing a shared link split its bandwidth exactly
// as two monolithic transfers would. Fault interceptors are consulted
// per chunk per hop; the first failure aborts the whole stream (no
// further chunks are charged anywhere) and is returned.
//
// A chunkSize <= 0, a chunkSize >= size, or a single-hop path
// degenerates to the monolithic store-and-forward TryTransfer, with
// identical timing.
//
// Staging between hops is unbounded: a fast first hop may run arbitrarily
// far ahead of a slow second hop within one stream. This models a
// transfer whose intermediate tier has room for the full payload, which
// is how every caller in this runtime uses it (the destination
// reservation is made before the stream starts).
//
// Hop 0 runs in the caller's task, so after an aborted stream the caller
// carries on in the slot where its last chunk ended. Every downstream hop
// is an event the clock runs in the slot its task would have been resumed
// in, so a K-chunk stream resumes its caller K+1 times — once per chunk
// and once when the last hop exits — and resumes no other task.
func (p Path) TryPipelined(size, chunkSize int64) (PipelineStats, error) {
	st := PipelineStats{
		Bytes:    size,
		HopBusy:  make([]time.Duration, len(p)),
		HopBytes: make([]int64, len(p)),
	}
	if size <= 0 || len(p) == 0 {
		return st, nil
	}
	clk := p[0].clk
	start := clk.Now()
	if chunkSize <= 0 || chunkSize >= size || len(p) == 1 {
		st.Chunks = 1
		var err error
		for i, l := range p {
			var d time.Duration
			d, err = l.TryTransfer(size)
			st.HopBusy[i] += d
			if err != nil {
				break
			}
			st.HopBytes[i] += size
		}
		st.Duration = clk.Now() - start
		return st, err
	}

	nHops := len(p)
	ps := getPipeline(clk, p, st.HopBusy, st.HopBytes)

	// Each hop starts where its task would have: readied now, behind
	// everything readied before it.
	for h := 1; h < nHops; h++ {
		ps.running++
		ev := &ps.hops[h].ev
		ev.Arm(-1)
		ev.Signal()
	}

	// Hop 0 runs in the caller's task.
	chunks := 0
	for off := int64(0); off < size; off += chunkSize {
		n := chunkSize
		if size-off < n {
			n = size - off
		}
		ps.mu.Lock()
		aborted := ps.err != nil
		ps.mu.Unlock()
		if aborted {
			break
		}
		d, err := p[0].TryTransfer(n)
		chunks++
		if !ps.landed(0, n, d, err) {
			break
		}
	}

	ps.mu.Lock()
	ps.closed[1] = true
	ps.cond.Broadcast()
	ps.cond.WaitFor(ps.drained)
	err := ps.err
	ps.mu.Unlock()
	putPipeline(ps)

	st.Chunks = chunks
	st.Duration = clk.Now() - start
	return st, err
}

// landed books a chunk of n bytes that hop h finished in d with err,
// forwards it downstream, and wakes the stages waiting on it. It reports
// whether the hop carries on: false once the chunk failed.
func (ps *pipeline) landed(h int, n int64, d time.Duration, err error) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.busy[h] += d
	if err != nil {
		if ps.err == nil {
			ps.err = err
		}
		ps.cond.Broadcast()
		return false
	}
	ps.bytes[h] += n
	if h+1 < len(ps.path) {
		ps.queues[h+1] = append(ps.queues[h+1], n)
		ps.cond.Broadcast()
	}
	return true
}

// Run takes the hop's next chunk: it parks the hop's event on the cond
// while the queue is empty and open, exits the hop when it is done, and
// otherwise starts the chunk's transfer, whose event collects it. On any
// pipeline error the hop exits without charging further transfers.
func (hp *hop) Run() {
	ps := hp.ps
	ps.mu.Lock()
	q := ps.queues[hp.h]
	if ps.heads[hp.h] >= len(q) && !ps.closed[hp.h] && ps.err == nil {
		hp.ev.ArmOn(ps.cond)
		ps.mu.Unlock()
		return
	}
	if ps.err != nil || ps.heads[hp.h] >= len(q) {
		ps.mu.Unlock()
		hp.exit()
		return
	}
	n := q[ps.heads[hp.h]]
	ps.heads[hp.h]++
	ps.mu.Unlock()

	l := ps.path[hp.h]
	hp.t0 = l.clk.Now()
	t, ferr := l.begin(n, hp)
	hp.ferr = ferr
	if t.done {
		hp.collect(t)
	}
}

// collect books t, the hop's finished chunk, downstream and goes on to the
// next one. A failed chunk becomes the pipeline error and exits the hop.
func (hp *hop) collect(t *transfer) {
	l := hp.ps.path[hp.h]
	n := t.size
	l.mu.Lock()
	err := l.finishLocked(t, hp.ferr)
	l.mu.Unlock()
	hp.ferr = nil
	if !hp.ps.landed(hp.h, n, l.clk.Now()-hp.t0, err) {
		hp.exit()
		return
	}
	hp.Run()
}

// exit closes the hop's downstream queue and wakes the stages waiting on
// it; the last hop to exit releases the caller.
func (hp *hop) exit() {
	ps := hp.ps
	ps.mu.Lock()
	if hp.h+1 < len(ps.path) {
		ps.closed[hp.h+1] = true
	}
	ps.running--
	ps.cond.Broadcast()
	ps.mu.Unlock()
}
