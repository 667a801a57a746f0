package core

import (
	"fmt"

	"score/internal/fabric"
	"score/internal/metrics"
	"score/internal/trace"
)

// This file holds the chunked-streaming variants of the runtime's
// transfer charges (§4.3). Every helper degenerates to the exact seed
// sequence — identical retry labels, identical virtual-clock timing —
// when Params.ChunkSize is 0, so the monolithic configuration reproduces
// seed behavior bit for bit.
//
// Retry semantics differ between the two modes by design: the monolithic
// paths retry each hop independently (labels "pcie", "ssd", "pfs"),
// while a chunked stream is retried whole under a combined label
// ("pcie+ssd", "ssd+pcie", ...) because a pipeline's hops fail as one
// stream. Fault-injection campaigns that assert per-hop retry counts run
// with ChunkSize=0.

// stream moves ck's bytes along path, which runs between the GPU and
// the tier named label (up: onto the GPU), as one engine-held chunked
// stream, and observes it.
func (c *Client) stream(ck *checkpoint, path fabric.Path, up bool, label string) error {
	st, err := c.p.GPU.TryStream(path, ck.size, c.p.ChunkSize)
	c.observePipeline(ck.id, up, label, st, err)
	return err
}

// observePipeline records a completed chunked stream of version id in
// the metrics and, when tracing, as a post-hoc span (the chunk count and
// hidden time are only known at completion) linked into the checkpoint's
// causal flow: a promotion from label when up, else a flush to it.
// Monolithic transfers (Chunks <= 1) record nothing — their spans and
// counters are unchanged from the seed. Streams that finished without
// error feed the per-hop byte-conservation invariant; aborted streams
// carry partial hops and are excluded.
func (c *Client) observePipeline(id ID, up bool, label string, st fabric.PipelineStats, streamErr error) {
	if st.Chunks <= 1 {
		return
	}
	c.rec.Pipelined(st.Bytes, st.Duration, st.HopBusySum(), st.HopBytes[:st.Hops], streamErr == nil)
	if c.p.Tracer != nil {
		track, category, format := trace.TrackD2H, "flush", "flush %d gpu→%s [%d chunks, %v overlapped]"
		if up {
			track, category, format = trace.TrackPF, "prefetch", "promote %d %s→gpu [%d chunks, %v overlapped]"
		}
		end := c.clk.Now()
		c.p.Tracer.RecordFlow(c.p.GPU.ID(), track, category,
			fmt.Sprintf(format, id, label, st.Chunks, st.Overlap()),
			end-st.Duration, st.Duration, c.flowID(id))
	}
}

// copyD2HHost charges the GPU→host PCIe copy of a flush. With ChunkSize
// set it runs as an engine-held stream, so concurrent flush workers
// contend for the modeled copy engines; a single hop has no pipeline
// overlap, so the timing matches the monolithic copy.
func (c *Client) copyD2HHost(ck *checkpoint, att *attrib) error {
	c.lifecycle(ck.id, trace.LD2HStart, "host", "")
	err := c.retryIOAttr(ck, att, metrics.XferPCIe, "pcie", "D2H copy", func() error {
		if c.p.ChunkSize == 0 {
			_, err := c.p.GPU.TryCopyD2H(ck.size)
			return err
		}
		return c.stream(ck, c.pcie, false, "host")
	})
	if err == nil {
		c.lifecycle(ck.id, trace.LD2HEnd, "host", "")
	}
	return err
}

// transferDown charges the movement of ck's bytes onto the deep tier d;
// fromGPU prepends the PCIe hop. With ChunkSize set and a GPU source, all
// hops run as one chunked engine-held stream — the NVMe/PFS write of
// chunk i overlaps the PCIe copy of chunk i+1 — retried whole under the
// combined label. Otherwise the hops run store-and-forward with the
// seed's independent per-hop retries. Attribution: a combined stream is
// charged whole to the destination's transfer component;
// store-and-forward charges each hop separately.
func (c *Client) transferDown(ck *checkpoint, fromGPU bool, d *deepTier, att *attrib) error {
	if fromGPU && c.p.ChunkSize > 0 {
		return c.retryIOAttr(ck, att, d.comp, d.fusedWr, d.fusedWrWhat, func() error {
			return c.stream(ck, d.down, false, d.label)
		})
	}
	if fromGPU {
		if err := c.retryIOAttr(ck, att, metrics.XferPCIe, "pcie", "D2H copy", func() error {
			_, err := c.p.GPU.TryCopyD2H(ck.size)
			return err
		}); err != nil {
			return err
		}
	}
	return c.retryIOAttr(ck, att, d.comp, d.label, d.wrWhat, func() error {
		return c.cross(d.write, ck.size)
	})
}
