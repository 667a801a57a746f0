package fabric

import (
	"fmt"
	"sync"
	"time"

	"score/internal/simclock"
)

// MaxHops is the longest Path TryPipelined takes. PipelineStats keeps its
// per-hop figures in arrays this long, so a stream's result costs no
// allocation; the longest route the runtime builds crosses four links
// (GPU PCIe → NIC → partner NIC → partner NVMe).
const MaxHops = 8

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
	// Hops is the length of the Path: HopBusy and HopBytes hold one
	// figure per hop in their first Hops entries and zero beyond.
	Hops int
	// HopBusy is the summed transfer time charged on each hop, indexed
	// like the Path. With no pipelining their sum equals Duration; with
	// overlap the sum exceeds it.
	HopBusy [MaxHops]time.Duration
	// HopBytes is the payload successfully carried by each hop, indexed
	// like the Path. On an error-free stream every one of the Hops
	// entries equals Bytes — the conservation invariant
	// metrics.CheckInvariants enforces.
	HopBytes [MaxHops]int64
}

// HopBusySum returns the total per-hop occupancy across all hops.
func (s PipelineStats) HopBusySum() time.Duration {
	var sum time.Duration
	for _, d := range s.HopBusy[:s.Hops] {
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

// pipeline is the shared state of one TryPipelined transfer. Every hop is
// an event (hop): hop 0 cuts the payload into chunks and every downstream
// hop drains its queue. All handoff between hops goes through the
// cond-guarded queues: an idle hop parks its event among cond's waiters,
// and so does hop 0's once it has exited, waiting in the caller's place
// for the last hop to exit, so one Broadcast readies them in the order
// they parked. A store-and-forward transfer (mono) uses no queue: each hop
// hands the whole payload to the next.
type pipeline struct {
	path Path

	cond simclock.Cond

	// size and chunk are the payload and the piece hop 0 cuts it into;
	// off is how much of it hop 0 has started.
	size, chunk, off int64
	// st accumulates the chunk count and the per-hop transfer time and
	// payload; the caller gets a copy.
	st PipelineStats

	// queues[h] holds the chunk sizes forwarded to hop h but not yet
	// transferred; heads[h] is the consumption cursor (the backing
	// arrays are bounded by the chunk count and kept with the record,
	// so no compaction is needed).
	queues [MaxHops][]int64
	heads  [MaxHops]int
	// closed[h] means no more chunks will ever be appended to
	// queues[h]: the upstream stage has finished or aborted.
	closed [MaxHops]bool
	// err is the first hop failure; once set, every stage aborts
	// without charging further transfers.
	err error
	// running counts the hops, hop 0 included, that have not exited; in
	// a store-and-forward transfer it is 1 until the last hop is done.
	running int
	// mono marks a store-and-forward transfer: one chunk, the whole
	// payload, handed from hop to hop with no queue (forward).
	mono bool
	// awaited means the caller has parked on hop 0's event: the stream
	// did not end before it could.
	awaited bool
	// hops[h] is hop h's event state.
	hops [MaxHops]hop

	// clk remembers which clock cond and the hop events were bound to,
	// so a pooled pipeline reused under the same clock keeps them.
	clk *simclock.Virtual
}

// hop is hop h of a pipeline. Its work runs where a task would have been
// resumed: the event of the transfer carrying its chunk hands over to it
// (collect) when the chunk completes or fails, and a downstream hop's own
// event runs when the hop starts and when a Broadcast readies it idle.
// Hop 0 never waits for a chunk: its own event runs only once the hop has
// exited, standing in for the caller's wait (release).
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
var pipelinePool = sync.Pool{New: func() any { return new(pipeline) }}

// getPipeline returns a reset pipeline streaming size bytes in chunk
// pieces over path, with every hop running.
func getPipeline(clk *simclock.Virtual, path Path, size, chunk int64) *pipeline {
	ps := pipelinePool.Get().(*pipeline)
	if ps.clk != clk {
		ps.cond = clk.NewCond(nil)
		for h := range ps.hops {
			hp := &ps.hops[h]
			hp.ps, hp.h = ps, h
			clk.InitEvent(&hp.ev, hp)
		}
		ps.clk = clk
	}
	ps.path = path
	ps.size, ps.chunk, ps.off = size, chunk, 0
	ps.st = PipelineStats{Bytes: size, Hops: len(path)}
	for h := range path {
		ps.queues[h] = ps.queues[h][:0]
		ps.heads[h] = 0
		ps.closed[h] = false
	}
	ps.err = nil
	ps.running = len(path)
	ps.mono, ps.awaited = false, false
	return ps
}

// putPipeline returns ps to the pool. Callers must only do this after
// every hop has exited (running == 0) and the caller has been resumed:
// an exited hop's event is parked nowhere.
func putPipeline(ps *pipeline) {
	ps.path = nil
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
// degenerates to the monolithic store-and-forward Path.TryTransfer, with
// identical timing: each hop's transfer starts in the slot where the
// previous one ended.
//
// Staging between hops is unbounded: a fast first hop may run arbitrarily
// far ahead of a slow second hop within one stream. This models a
// transfer whose intermediate tier has room for the full payload, which
// is how every caller in this runtime uses it (the destination
// reservation is made before the stream starts).
//
// Every hop is an event the clock runs in the slot a task of its own
// would have been resumed in. The caller starts the first chunk on hop 0
// and waits on hop 0's event, which resumes it once, when the last hop
// exits: a transfer of any chunk count over any number of hops resumes
// its caller once and no other task (none at all when the first chunk
// fails at once). After an aborted stream whose downstream hops exited
// first, the caller carries on in the slot where hop 0's last chunk
// ended. A path longer than MaxHops panics.
func (p Path) TryPipelined(size, chunkSize int64) (PipelineStats, error) {
	if len(p) > MaxHops {
		panic(fmt.Sprintf("fabric: a %d-link path is longer than MaxHops (%d)", len(p), MaxHops))
	}
	if size <= 0 || len(p) == 0 {
		return PipelineStats{Bytes: size, Hops: len(p)}, nil
	}
	clk := p[0].clk
	start := clk.Now()
	ps := getPipeline(clk, p, size, chunkSize)
	hop0 := &ps.hops[0]
	if chunkSize <= 0 || chunkSize >= size || len(p) == 1 {
		// Store and forward: the whole payload crosses one hop after the
		// other.
		ps.mono, ps.running = true, 1
		ps.st.Chunks = 1
		hop0.start(size)
	} else {
		// Each downstream hop starts where its task would have: readied
		// now, behind everything readied before it.
		for h := 1; h < len(p); h++ {
			ev := &ps.hops[h].ev
			ev.Arm(-1)
			ev.Signal()
		}
		hop0.next()
	}
	// Hop 0 has started its first chunk in the caller's slot and goes on
	// from the events of its chunks' transfers.
	if ps.running > 0 {
		ps.awaited = true
		hop0.ev.Await()
	}
	st, err := ps.st, ps.err
	putPipeline(ps)

	st.Duration = clk.Now() - start
	return st, err
}

// landed books a chunk of n bytes that hop h finished in d with err,
// forwards it downstream, and wakes the stages waiting on it. It reports
// whether the hop carries on: false once the chunk failed.
func (ps *pipeline) landed(h int, n int64, d time.Duration, err error) bool {
	ps.st.HopBusy[h] += d
	if err != nil {
		if ps.err == nil {
			ps.err = err
		}
		ps.cond.Broadcast()
		return false
	}
	ps.st.HopBytes[h] += n
	if h+1 < len(ps.path) {
		ps.queues[h+1] = append(ps.queues[h+1], n)
		ps.cond.Broadcast()
	}
	return true
}

// Run is the hop's event. A downstream hop takes its next chunk; hop 0's
// event runs only after the hop exited, in the caller's wait.
func (hp *hop) Run() {
	if hp.h == 0 {
		hp.ps.release()
		return
	}
	hp.next()
}

// next starts the hop's next chunk, whose transfer's event collects it:
// hop 0 cuts it from the payload, a downstream hop takes it from its
// queue and parks its event on the cond while the queue is empty and
// open. The hop exits when it is done, and on any pipeline error without
// charging further transfers.
func (hp *hop) next() {
	ps := hp.ps
	var n int64
	if hp.h == 0 {
		if ps.err != nil || ps.off >= ps.size {
			hp.exit()
			return
		}
		n = min(ps.chunk, ps.size-ps.off)
		ps.off += n
		ps.st.Chunks++
	} else {
		q := ps.queues[hp.h]
		if ps.heads[hp.h] >= len(q) && !ps.closed[hp.h] && ps.err == nil {
			hp.ev.ArmOn(ps.cond)
			return
		}
		if ps.err != nil || ps.heads[hp.h] >= len(q) {
			hp.exit()
			return
		}
		n = q[ps.heads[hp.h]]
		ps.heads[hp.h]++
	}
	hp.start(n)
}

// start begins the hop's transfer of a chunk of n bytes, whose event
// collects it, at once when it failed with nothing to charge.
func (hp *hop) start(n int64) {
	l := hp.ps.path[hp.h]
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
	ps := hp.ps
	l := ps.path[hp.h]
	n := t.size
	err := l.finish(t, hp.ferr)
	hp.ferr = nil
	d := l.clk.Now() - hp.t0
	if ps.mono {
		hp.forward(n, d, err)
		return
	}
	if !ps.landed(hp.h, n, d, err) {
		hp.exit()
		return
	}
	hp.next()
}

// forward is collect for a store-and-forward transfer: the hop, done with
// the whole payload, starts the next hop's transfer of it in this slot,
// where a caller crossing the hops with TryTransfer would start it. The
// last hop, or a failure, ends the transfer.
func (hp *hop) forward(n int64, d time.Duration, err error) {
	ps := hp.ps
	ps.st.HopBusy[hp.h] += d
	if err == nil {
		ps.st.HopBytes[hp.h] += n
		if hp.h+1 < len(ps.path) {
			ps.hops[hp.h+1].start(n)
			return
		}
	}
	ps.err = err
	ps.running = 0
	ps.release()
}

// exit closes the hop's downstream queue and wakes the stages waiting on
// it. Hop 0 then waits for the others in the caller's place.
func (hp *hop) exit() {
	ps := hp.ps
	if hp.h+1 < len(ps.path) {
		ps.closed[hp.h+1] = true
	}
	ps.running--
	ps.cond.Broadcast()
	if hp.h == 0 {
		ps.release()
	}
}

// release is the caller's wait for the last hop: once every hop has
// exited it resumes the caller in this slot, else it parks hop 0's event
// at the tail of the cond's waiters, where a wait of the caller's own
// would file it, to run again at the next Broadcast. It runs in hop 0's
// event, or in the event of the transfer that ended hop 0 (after an
// aborted stream whose downstream hops exited first) or the last hop of a
// store-and-forward transfer: the caller carries on in that transfer's
// slot, where an Await on the transfer would resume it. It also runs in the
// caller's task when hop 0 ends before the caller parks: in a stream the
// downstream hops, readied but not yet run, are all still running; a
// store-and-forward transfer whose first hop failed at once has ended,
// and the caller does not park at all.
func (ps *pipeline) release() {
	ev := &ps.hops[0].ev
	switch {
	case ps.running > 0:
		ev.ArmOn(ps.cond)
	case ps.awaited:
		ev.Resume()
	}
}
