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

// pipeline is the shared state of one chunked multi-hop transfer. One
// clock task per downstream hop drains its queue; the caller's task
// feeds hop 0. All handoff between hops goes through the cond-guarded
// queues — native channels would hide the blocking from the virtual
// clock and deadlock the simulation.
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
	// running counts live downstream hop tasks.
	running int

	// condClk remembers which clock cond was built for, so a pooled
	// pipeline reused under the same clock keeps its cond (the mutex it
	// wraps lives in this struct and is stable across reuses).
	condClk simclock.Clock
}

// pipelinePool recycles pipeline records between streams. A chunked
// multi-rank run creates one pipeline per flush/stage/restore stream;
// reuse keeps the queue backing arrays and the cond allocation out of
// the per-stream bill.
var pipelinePool = sync.Pool{New: func() any { return new(pipeline) }}

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
		ps.condClk = clk
	}
	return ps
}

// putPipeline returns ps to the pool. Callers must only do this after
// every hop task has exited (running == 0): the hop tasks hold the only
// other references. The caller-owned stats arrays are dropped so the
// pool never retains them.
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

	for h := 1; h < nHops; h++ {
		h := h
		ps.running++
		clk.Go(func() { ps.runHop(h) })
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
		ps.mu.Lock()
		ps.busy[0] += d
		if err != nil {
			if ps.err == nil {
				ps.err = err
			}
			ps.cond.Broadcast()
			ps.mu.Unlock()
			break
		}
		ps.bytes[0] += n
		ps.queues[1] = append(ps.queues[1], n)
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}

	ps.mu.Lock()
	ps.closed[1] = true
	ps.cond.Broadcast()
	for ps.running > 0 {
		ps.cond.Wait()
	}
	err := ps.err
	ps.mu.Unlock()
	putPipeline(ps)

	st.Chunks = chunks
	st.Duration = clk.Now() - start
	return st, err
}

// runHop drains queues[h] until the upstream closes and the queue is
// empty, forwarding each completed chunk downstream. On any pipeline
// error it exits without charging further transfers; its own failure
// becomes the pipeline error. Either way it closes its downstream queue
// so the whole pipeline winds down.
func (ps *pipeline) runHop(h int) {
	defer func() {
		ps.mu.Lock()
		if h+1 < len(ps.path) {
			ps.closed[h+1] = true
		}
		ps.running--
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}()
	for {
		ps.mu.Lock()
		for ps.heads[h] >= len(ps.queues[h]) && !ps.closed[h] && ps.err == nil {
			ps.cond.Wait()
		}
		if ps.err != nil || ps.heads[h] >= len(ps.queues[h]) {
			ps.mu.Unlock()
			return
		}
		n := ps.queues[h][ps.heads[h]]
		ps.heads[h]++
		ps.mu.Unlock()

		d, err := ps.path[h].TryTransfer(n)

		ps.mu.Lock()
		ps.busy[h] += d
		if err != nil {
			if ps.err == nil {
				ps.err = err
			}
			ps.cond.Broadcast()
			ps.mu.Unlock()
			return
		}
		ps.bytes[h] += n
		if h+1 < len(ps.path) {
			ps.queues[h+1] = append(ps.queues[h+1], n)
			ps.cond.Broadcast()
		}
		ps.mu.Unlock()
	}
}
