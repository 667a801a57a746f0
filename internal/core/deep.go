package core

import (
	"fmt"
	"slices"

	"score/internal/ckptstore"
	"score/internal/fabric"
	"score/internal/metrics"
)

// This file is the one place that knows which tiers lie below the host
// cache, in what order reads fall through them and what each costs: the
// client's table of deep tiers, the single read ladder that walks it
// (sequentially, or as a hedged race over the same legs), and the
// write-side helpers of the one durable landing (landDurable, flush.go)
// and of the partner copy.

// deepKind is what every client knows about one kind of tier below the
// host cache.
type deepKind struct {
	tier        Tier
	label       string       // retry label and health-estimator class
	fused       string       // retry label of its chunked read + H2D stream
	fusedWr     string       // retry label of its chunked D2H + write stream
	rdWhat      string       // ledger text of a plain read
	wrWhat      string       // ledger text of a plain write
	fusedWrWhat string       // ledger text of its chunked D2H + write stream
	comp        metrics.Comp // critical-path component its transfers charge
}

// deepKinds lists them fastest first — the order reads fall through.
var deepKinds = [...]deepKind{
	{TierSSD, "ssd", "ssd+pcie", "pcie+ssd", "NVMe read", "NVMe write", "chunked NVMe write", metrics.XferSSD},
	{TierPartner, "partner", "partner+pcie", "pcie+partner", "partner SSD read", "partner copy", "chunked partner copy", metrics.XferPartner},
	{TierPFS, "pfs", "pfs+pcie", "pcie+pfs", "PFS read", "PFS write", "chunked PFS write", metrics.XferPFS},
}

// deepTier is one row of a client's table: a kind it has configured, the
// paths that reach it, composed once, and its durable store.
type deepTier struct {
	*deepKind
	read  fabric.Path      // read direction, source first
	write fabric.Path      // write direction, destination last
	up    fabric.Path      // read, then PCIe onto the GPU: a fused read's stream
	down  fabric.Path      // PCIe off the GPU, then write: a fused write's stream
	store *ckptstore.Store // durable bytes; nil when the tier is simulated only
	// health is the tier's link-class estimator (health.go); nil until
	// its first observation.
	health *classHealth
}

// deepTiers builds a client's table in deepKinds order. The local SSD
// always exists; the partner SSD only with a PartnerPath (read in
// reverse: partner NVMe → partner NIC → local NIC) and the PFS only with
// a PFS link that can keep what the SSD keeps: beside an SSD store, a
// storeless PFS is no tier — a restarted process could not read it back.
// It also returns the GPU's PCIe link as a path of its own (Client.pcie).
func deepTiers(p Params) (deep []deepTier, pcie fabric.Path) {
	// Every path the client composes is cut, capacity clipped, from one
	// backing array sized for all three rows: the one-link PCIe, SSD and
	// PFS paths, the reversed partner path, and each row's up and down path.
	links := make([]*fabric.Link, 0, 13+3*len(p.PartnerPath))
	cut := func(parts ...fabric.Path) fabric.Path {
		n := len(links)
		for _, part := range parts {
			links = append(links, part...)
		}
		return links[n:len(links):len(links)]
	}
	pcie = cut(fabric.Path{p.GPU.PCIeLink()})
	row := func(k int, read, write fabric.Path, store *ckptstore.Store) deepTier {
		return deepTier{deepKind: &deepKinds[k], read: read, write: write,
			up: cut(read, pcie), down: cut(pcie, write), store: store}
	}
	ssd, pfs := cut(fabric.Path{p.NVMe}), cut(fabric.Path{p.PFS})
	deep = append(make([]deepTier, 0, len(deepKinds)), row(0, ssd, ssd, p.Store))
	if len(p.PartnerPath) > 0 {
		rev := cut(p.PartnerPath)
		slices.Reverse(rev)
		deep = append(deep, row(1, rev, p.PartnerPath, p.PartnerStore))
	}
	if p.PFS != nil && (p.PFSStore != nil || p.Store == nil) {
		deep = append(deep, row(2, pfs, pfs, p.PFSStore))
	}
	return deep, pcie
}

// deepOf returns t's row, or nil when t is a cache tier or is not
// configured on this client.
func (c *Client) deepOf(t Tier) *deepTier {
	for i := range c.deep {
		if c.deep[i].tier == t {
			return &c.deep[i]
		}
	}
	return nil
}

// firstHolder returns the fastest deep tier holding a readable
// copy of ck, or nil.
func (c *Client) firstHolder(ck *checkpoint) *deepTier {
	for i := range c.deep {
		if ck.dataOn(c.deep[i].tier) {
			return &c.deep[i]
		}
	}
	return nil
}

// cross charges one store-and-forward crossing of path. Chunked
// configurations route through the pipelined form for uniformity; a
// single hop degenerates to monolithic timing either way.
func (c *Client) cross(path fabric.Path, size int64) error {
	if cs := c.p.ChunkSize; cs > 0 {
		_, err := path.TryPipelinedTransfer(size, cs)
		return err
	}
	_, err := path.TryTransfer(size)
	return err
}

// readDeep charges a verified read of ck's bytes from below the host
// tier, walking the table's holders fastest first; toGPU adds the PCIe
// hop onto the device. The rule of the ladder:
//
//   - a degraded tier is skipped while a deeper one holds the data (the
//     gate is evaluated when the walk reaches the tier, so a probation
//     window that opens mid-walk is honored);
//   - an attempt on any but the shallowest holder counts one
//     FallbackRead — a shallower copy was skipped or failed;
//   - success feeds the health estimator and heals the tier; a failure
//     that is not a shutdown degrades the tier and falls to the next
//     holder, unless this was the deepest one, whose error is definitive.
//
// With Params.Hedge and at least two candidates the same legs race
// instead (hedgeRace). A checkpoint with no readable deep replica is
// definitively lost.
func (c *Client) readDeep(ck *checkpoint, att *attrib, toGPU bool) error {
	// With ChunkSize set a read bound for the GPU fuses the deep hops and
	// the H2D copy into one engine-held stream per leg.
	fused := toGPU && c.p.ChunkSize > 0
	var buf [len(deepKinds)]*deepTier
	held := buf[:0]
	for i := range c.deep {
		if ck.dataOn(c.deep[i].tier) {
			held = append(held, &c.deep[i])
		}
	}

	err := c.walkDeep(ck, att, held, fused)
	if err == nil && toGPU && !fused {
		err = c.copyH2D(ck, att)
	}
	return err
}

// walkDeep is readDeep's ladder over the holders of ck.
func (c *Client) walkDeep(ck *checkpoint, att *attrib, held []*deepTier, fused bool) error {
	if c.p.Hedge {
		var cands []*deepTier
		for i, d := range held {
			if i == len(held)-1 || !c.tierDegraded(d.tier) {
				cands = append(cands, d)
			}
		}
		// A single candidate degenerates to the sequential walk below.
		if len(cands) >= 2 {
			_, err := c.hedgeRace(ck, att, cands, raceDir{restore: true,
				// Each leg applies the walk's rule below to its own outcome.
				run: func(l *raceLeg) error {
					err := c.readLeg(ck, nil, l.deepTier, fused)
					switch {
					case err == nil:
						c.observeHealth(l.deepTier, ck.size, c.clk.Now()-l.start)
					case !isShutdownErr(err) && l.deepTier != cands[len(cands)-1]:
						c.degradeTier(l.tier)
					}
					return err
				},
				// A loser that lands after the decision moved its bytes for
				// nothing.
				late: func(*raceLeg) { c.rec.HedgeWasted(ck.size) },
			})
			return err
		}
	}
	for i, d := range held {
		deeper := i < len(held)-1
		if deeper && c.tierDegraded(d.tier) {
			continue
		}
		if i > 0 {
			c.rec.FallbackRead()
		}
		legStart := c.clk.Now()
		err := c.readLeg(ck, att, d, fused)
		if err == nil {
			c.observeHealth(d, ck.size, c.clk.Now()-legStart)
			c.healTier(d.tier)
			return nil
		}
		if isShutdownErr(err) || !deeper {
			return err
		}
		c.degradeTier(d.tier)
	}
	return fmt.Errorf("%w: checkpoint %d has no readable replica below the host tier", ErrLost, ck.id)
}

// readLeg is one leg of the ladder under the retry policy: a plain
// crossing of d's read path retried per attempt, or — fused — the
// chunked read + H2D stream retried whole under the combined label
// (stream.go explains the split).
func (c *Client) readLeg(ck *checkpoint, att *attrib, d *deepTier, fused bool) error {
	if !fused {
		return c.retryIOAttr(ck, att, d.comp, d.label, d.rdWhat, func() error {
			return c.cross(d.read, ck.size)
		})
	}
	return c.retryIOAttr(ck, att, d.comp, d.fused, "chunked deep read + H2D", func() error {
		return c.stream(ck, d.up, true, d.label)
	})
}

// deepReplica returns ck's replica record on a deep tier, publishing a
// fresh INIT one when none exists, and whether it already holds data.
func (c *Client) deepReplica(ck *checkpoint, tier Tier) (rep *replica, hasData bool) {
	rep = ck.replicas[tier]
	if rep == nil {
		// No rescore: the rule asks a deep record only whether it holds
		// data, and an INIT one does not until its writer moves it.
		rep = c.newReplica(tier)
		ck.replicas[tier] = rep
	}
	return rep, rep.hasData()
}

// writeDeep charges the movement of ck's bytes onto d (transferDown) and
// persists them in d's store, when it has one and the payload is real.
func (c *Client) writeDeep(ck *checkpoint, fromGPU bool, d *deepTier, att *attrib) error {
	if err := c.transferDown(ck, fromGPU, d, att); err != nil {
		return err
	}
	if d.store == nil {
		return nil
	}
	data := ck.pay.Bytes()
	if data == nil {
		return nil // virtual (size-only) payload: simulated as before
	}
	return c.retryIOAttr(ck, att, metrics.StorePut, d.label, "store put", func() error {
		if err := d.store.Put(int64(ck.id), data); err != nil && err != ckptstore.ErrExists {
			return err
		}
		return nil
	})
}

// unlinkReplica drops ck's record on tier if it is still rep — the back-
// out of a reservation that failed or a transfer that gave up — and
// releases whoever waits on rep's machine: nobody will move it again,
// so a Restore parked on it must re-read the table and take over. It is
// the only place a record that can have waiters is dropped.
func (c *Client) unlinkReplica(ck *checkpoint, tier Tier, rep *replica) {
	if ck.replicas[tier] == rep {
		c.setReplica(ck, tier, nil)
	}
	c.sendWakes()
	rep.fsm.Abandon()
}
