// Package adiossim models the paper's ADIOS2 baseline (§5.2.1): the BP5
// transport engine with deferred (asynchronous) I/O to NVMe, buffering in
// host memory, and adios2::MemorySpace::CUDA for GPU-resident data.
//
// The structural property the paper leans on is that ADIOS2 has no
// dedicated device cache tier: every Put of GPU data performs an on-demand
// device-to-host copy that blocks the application for the PCIe transfer,
// and every Get of a non-buffered step reads NVMe → host → device
// synchronously. There is no prefetching; hints are accepted but ignored,
// matching the "No hints, ADIOS2" row of Table 1.
package adiossim

import (
	"errors"

	"score/internal/device"
	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/payload"
	"score/internal/simclock"
	"score/internal/slab"
)

// Errors mirroring the core runtime's.
var (
	ErrUnknownCheckpoint = errors.New("adiossim: unknown checkpoint")
	ErrClosed            = errors.New("adiossim: client closed")
	ErrDuplicate         = errors.New("adiossim: checkpoint version already written")
)

// Config parameterizes the BP5-like engine.
type Config struct {
	// Clock drives timing; required.
	Clock *simclock.Virtual
	// GPU supplies the PCIe link for on-demand D2H/H2D copies; required.
	GPU *device.GPU
	// NVMe is the deferred-drain target; required.
	NVMe *fabric.Link
	// HostBufferSize bounds the BP5 host buffer; when full, Put blocks
	// on the drain (the paper grants every approach 32 GiB). Required.
	HostBufferSize int64
}

// pageableEfficiency scales PCIe bandwidth for BP5's transfers: the engine
// marshals into pageable (unpinned) host buffers, which reach only a
// fraction of the pinned-copy peak and additionally pay serialization.
const pageableEfficiency = 0.25

func (c Config) validate() error {
	switch {
	case c.Clock == nil:
		return errors.New("adiossim: Clock required")
	case c.GPU == nil:
		return errors.New("adiossim: GPU required")
	case c.NVMe == nil:
		return errors.New("adiossim: NVMe required")
	case c.HostBufferSize <= 0:
		return errors.New("adiossim: HostBufferSize must be positive")
	}
	return nil
}

// pcieCopy charges a pageable PCIe transfer of size bytes (D2H or H2D):
// the link moves the efficiency-inflated volume. An injected PCIe fault
// surfaces as the returned error.
func (c *Client) pcieCopy(size int64) error {
	_, err := c.cfg.GPU.PCIeLink().TryTransfer(int64(float64(size) / pageableEfficiency))
	return err
}

type step struct {
	id       int64
	size     int64
	pay      payload.Payload
	buffered bool // still in the host buffer
}

// Client is one process's ADIOS2-style engine.
type Client struct {
	cfg Config
	clk *simclock.Virtual
	rec *metrics.Recorder

	cond simclock.Cond

	steps     map[int64]*step
	records   slab.Slab[step] // every step's record is cut from it
	hostUsed  int64
	drainQ    []*step // pending from drainHead on, in FIFO order
	drainHead int
	draining  bool
	closed    bool
	err       error // first asynchronous drain failure

	restoreIter int
	daemons     *simclock.WaitGroup
}

// New creates and starts an ADIOS2-style client.
func New(cfg Config) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, clk: cfg.Clock, rec: metrics.NewRecorder(), steps: map[int64]*step{}}
	c.cond = c.clk.NewCond(nil)
	c.daemons = simclock.NewWaitGroup(c.clk)
	c.daemons.Add(1)
	c.clk.Go(func() { defer c.daemons.Done(); c.drainer() })
	return c, nil
}

// Close stops the drain worker.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.daemons.Wait()
}

// Err reports the first asynchronous drain failure, if any.
func (c *Client) Err() error {
	return c.err
}

// Metrics returns the client's recorder.
func (c *Client) Metrics() *metrics.Recorder { return c.rec }

// Checkpoint is BP5 Put+EndStep with deferred mode: the GPU data is copied
// on demand into the host buffer (blocking PCIe transfer — no device
// cache), then drained to NVMe in the background. A Put that fails leaves
// no step behind.
func (c *Client) Checkpoint(id int64, pay payload.Payload) error {
	start := c.clk.Now()
	if c.closed {
		return ErrClosed
	}
	if _, dup := c.steps[id]; dup {
		return ErrDuplicate
	}
	s := c.records.New()
	*s = step{id: id, size: pay.Size(), pay: pay}
	c.steps[id] = s
	// Wait for host buffer space (drain backpressure).
	for c.hostUsed+s.size > c.cfg.HostBufferSize {
		if c.closed {
			delete(c.steps, id)
			return ErrClosed
		}
		c.cond.Wait()
	}
	c.hostUsed += s.size
	s.buffered = true

	// On-demand pageable D2H: blocks the application.
	if err := c.pcieCopy(s.size); err != nil {
		delete(c.steps, id)
		c.hostUsed -= s.size
		c.cond.Broadcast()
		return err
	}

	c.drainQ = append(c.drainQ, s)
	c.cond.Broadcast()

	c.rec.Checkpoint(s.size, c.clk.Now()-start)
	return nil
}

// drainer writes buffered steps to NVMe and releases buffer space in FIFO
// order (BP5 deferred I/O).
func (c *Client) drainer() {
	for {
		for c.drainHead == len(c.drainQ) {
			if c.closed {
				return
			}
			if c.draining {
				// Transitioning to idle: wake WaitFlush exactly once
				// (broadcasting on every pass would livelock idle
				// waiters under the virtual clock).
				c.draining = false
				c.cond.Broadcast()
			}
			c.cond.Wait()
		}
		s := c.popDrain()
		c.draining = true

		_, err := c.cfg.NVMe.TryTransfer(s.size)

		if err != nil {
			// The drain failed: the step stays in the host buffer and
			// the failure is reported through Err/WaitFlush, once the
			// drainer goes idle. It frees no room, so it wakes nobody.
			if c.err == nil {
				c.err = err
			}
		} else if s.buffered {
			s.buffered = false
			c.hostUsed -= s.size
			c.cond.Broadcast() // room for a Checkpoint parked on backpressure
		}
	}
}

// popDrain takes the oldest pending step off drainQ. Once the drained
// prefix is at least half the slice, the pending tail slides down to the
// front, so the queue keeps reusing one backing array instead of
// regrowing it behind a dead head.
func (c *Client) popDrain() *step {
	s := c.drainQ[c.drainHead]
	c.drainHead++
	if c.drainHead*2 >= len(c.drainQ) {
		n := copy(c.drainQ, c.drainQ[c.drainHead:])
		c.drainQ = c.drainQ[:n]
		c.drainHead = 0
	}
	return s
}

// Restore is BP5 Get: from the host buffer if the step has not drained
// yet, otherwise a synchronous NVMe read, then an H2D copy. No caching,
// no prefetching.
func (c *Client) Restore(id int64) (payload.Payload, error) {
	start := c.clk.Now()
	if c.closed {
		return payload.Payload{}, ErrClosed
	}
	s, ok := c.steps[id]
	if !ok {
		return payload.Payload{}, ErrUnknownCheckpoint
	}
	iter := c.restoreIter
	c.restoreIter++
	buffered := s.buffered

	if !buffered {
		if _, err := c.cfg.NVMe.TryTransfer(s.size); err != nil { // NVMe → host staging
			return payload.Payload{}, err
		}
	}
	if err := c.pcieCopy(s.size); err != nil { // pageable host → device
		return payload.Payload{}, err
	}

	c.rec.Restore(iter, s.size, c.clk.Now()-start, 0)
	return s.pay, nil
}

// RestoreSize returns the step's size.
func (c *Client) RestoreSize(id int64) (int64, error) {
	s, ok := c.steps[id]
	if !ok {
		return 0, ErrUnknownCheckpoint
	}
	return s.size, nil
}

// PrefetchEnqueue is accepted and ignored: ADIOS2 exposes no prefetch
// hinting for this access pattern (Table 1: "No hints, ADIOS2").
func (c *Client) PrefetchEnqueue(int64) {}

// PrefetchStart is a no-op for ADIOS2.
func (c *Client) PrefetchStart() {}

// WaitFlush drains the deferred-I/O queue.
func (c *Client) WaitFlush() error {
	for c.drainHead < len(c.drainQ) || c.draining {
		if c.closed {
			return ErrClosed
		}
		c.cond.Wait()
	}
	return c.err
}
