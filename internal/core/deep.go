package core

import (
	"fmt"
	"slices"

	"score/internal/ckptstore"
	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/metrics"
	"score/internal/trace"
)

// This file is the one place that knows which tiers lie below the host
// cache, in what order reads fall through them and what each costs: the
// client's table of deep tiers, the single read ladder that walks it
// (sequentially, or as a hedged race over the same legs), and the
// write-side helpers the three flush routes share.

// deepKind is what every client knows about one kind of tier below the
// host cache.
type deepKind struct {
	tier   Tier
	label  string // retry label and health-estimator class
	fused  string // retry label of its chunked read + H2D stream
	rdWhat string // ledger text of a plain read
	wrWhat string // ledger text of a plain write
	comp   string // critical-path component its transfers charge
}

// deepKinds lists them fastest first — the order reads fall through.
var deepKinds = [...]deepKind{
	{TierSSD, "ssd", "ssd+pcie", "NVMe read", "NVMe write", metrics.CompXferSSD},
	{TierPartner, "partner", "partner+pcie", "partner SSD read", "partner copy", metrics.CompXferPartner},
	{TierPFS, "pfs", "pfs+pcie", "PFS read", "PFS write", metrics.CompXferPFS},
}

// deepTier is one row of a client's table: a kind it has configured, the
// paths that reach it and its durable store.
type deepTier struct {
	*deepKind
	read  fabric.Path      // read direction, source first
	write fabric.Path      // write direction, destination last
	store *ckptstore.Store // durable bytes; nil when the tier is simulated only
}

// deepTiers builds a client's table in deepKinds order. The local SSD
// always exists; the partner SSD only with a PartnerPath (read in
// reverse: partner NVMe → partner NIC → local NIC) and the PFS only with
// a PFS link that can keep what the SSD keeps: beside an SSD store, a
// storeless PFS is no tier — a restarted process could not read it back.
func deepTiers(p Params) []deepTier {
	single := []*fabric.Link{p.NVMe, p.PFS} // one backing array for both one-link paths
	ssd, pfs := fabric.Path(single[:1]), fabric.Path(single[1:])
	deep := append(make([]deepTier, 0, len(deepKinds)), deepTier{&deepKinds[0], ssd, ssd, p.Store})
	if len(p.PartnerPath) > 0 {
		rev := slices.Clone(p.PartnerPath)
		slices.Reverse(rev)
		deep = append(deep, deepTier{&deepKinds[1], rev, p.PartnerPath, p.PartnerStore})
	}
	if p.PFS != nil && (p.PFSStore != nil || p.Store == nil) {
		deep = append(deep, deepTier{&deepKinds[2], pfs, pfs, p.PFSStore})
	}
	return deep
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

// firstHolderLocked returns the fastest deep tier holding a readable
// copy of ck, or nil. Caller holds c.mu.
func (c *Client) firstHolderLocked(ck *checkpoint) *deepTier {
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
	c.mu.Lock()
	for i := range c.deep {
		if ck.dataOn(c.deep[i].tier) {
			held = append(held, &c.deep[i])
		}
	}
	c.mu.Unlock()

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
			return c.hedgeRace(ck, att, cands, fused)
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
		st, err := c.p.GPU.TryStreamH2D(d.read, ck.size, c.p.ChunkSize)
		c.observePipeline(trace.TrackPF, "prefetch",
			fmt.Sprintf("promote %d %s→gpu", ck.id, d.label), c.flowID(ck.id), st, err)
		return err
	})
}

// deepReplica returns ck's replica record on a deep tier, publishing a
// fresh INIT one when none exists, and whether it already holds data.
func (c *Client) deepReplica(ck *checkpoint, tier Tier) (rep *replica, hasData bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep = ck.replicas[tier]
	if rep == nil {
		// No rescore: the rule asks a deep record only whether it holds
		// data, and an INIT one does not until its writer moves it.
		rep = &replica{tier: tier, fsm: lifecycle.NewMachine(c.clk)}
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
	return c.retryIOAttr(ck, att, metrics.CompStorePut, d.label, "store put", func() error {
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
	c.mu.Lock()
	if ck.replicas[tier] == rep {
		c.setReplicaLocked(ck, tier, nil)
	}
	c.mu.Unlock()
	rep.fsm.Abandon()
}
