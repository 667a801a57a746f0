package metrics

import (
	"fmt"
	"sort"
	"time"

	"score/internal/slab"
)

// Critical-path operations: what end-to-end latency a CritPathRecord
// decomposes.
const (
	// CritDurable decomposes one checkpoint version's time-to-durable —
	// from the application's write to the fate-accounting durable mark.
	CritDurable = "durable"
	// CritRestore decomposes one restore's application-observed
	// blocking time.
	CritRestore = "restore"
)

// Critical-path components. The durable chain and the restore path are
// sequences of waits and transfers; attribution marks the boundary
// after each segment, so the components of one record telescope to
// exactly its Total (asserted by CheckInvariants — a non-zero
// Unattributed gap is a bug in the instrumentation).
const (
	CompGPUAdmit     = "gpu-admit"     // waiting for GPU cache space (eviction wait)
	CompHostAdmit    = "host-admit"    // waiting for host cache space
	CompHostReady    = "host-ready"    // waiting for host buffers to open/heal
	CompAlloc        = "alloc"         // on-demand device/pinned-host allocation charge
	CompCopyD2D      = "d2d-copy"      // intra-GPU cache copy
	CompQueueD2H     = "queue-d2h"     // queued for a T_D2H flusher
	CompQueueH2F     = "queue-h2f"     // queued for a T_H2F flusher
	CompXferPCIe     = "xfer-pcie"     // GPU↔host transfer on the PCIe hop
	CompXferSSD      = "xfer-ssd"      // host↔SSD transfer (chunked streams fold the PCIe leg in)
	CompXferPFS      = "xfer-pfs"      // transfer to/from the parallel file system
	CompXferPartner  = "xfer-partner"  // transfer from the partner node's SSD
	CompRetryBackoff = "retry-backoff" // sleeping between retried I/O attempts
	CompDrainWait    = "drain-wait"    // parked in the frozen flush queue until the drain triage ran it
	CompStorePut     = "store-put"     // committing bytes into a checkpoint store
	CompGPUWait      = "gpu-wait"      // restore waiting on an in-GPU write/promotion to land
	CompPromoteWait  = "promote-wait"  // restore waiting on an in-flight promotion
	CompUnattributed = "unattributed"  // residual gap — must stay zero
)

// Comp indexes the critical-path components above: the one component
// table the runtime's attribution cursor charges, the Recorder stores
// and the SLO engine stages from. CompNames maps an index to its name.
type Comp uint8

const (
	GPUAdmit Comp = iota
	HostAdmit
	HostReady
	Alloc
	CopyD2D
	QueueD2H
	QueueH2F
	XferPCIe
	XferSSD
	XferPFS
	XferPartner
	RetryBackoff
	DrainWait
	StorePut
	GPUWait
	PromoteWait
	NumComps
)

// CompNames are the exported names of the components, by index.
var CompNames = [NumComps]string{
	GPUAdmit:     CompGPUAdmit,
	HostAdmit:    CompHostAdmit,
	HostReady:    CompHostReady,
	Alloc:        CompAlloc,
	CopyD2D:      CompCopyD2D,
	QueueD2H:     CompQueueD2H,
	QueueH2F:     CompQueueH2F,
	XferPCIe:     CompXferPCIe,
	XferSSD:      CompXferSSD,
	XferPFS:      CompXferPFS,
	XferPartner:  CompXferPartner,
	RetryBackoff: CompRetryBackoff,
	DrainWait:    CompDrainWait,
	StorePut:     CompStorePut,
	GPUWait:      CompGPUWait,
	PromoteWait:  CompPromoteWait,
}

// CompsOf converts a components map to the fixed array. A name outside
// the table panics and names the name.
func CompsOf(m map[string]time.Duration) (comps [NumComps]time.Duration) {
	for name, d := range m {
		i := 0
		for i < len(CompNames) && CompNames[i] != name {
			i++
		}
		if i == len(CompNames) {
			panic(fmt.Sprintf("metrics: %q is not a critical-path component", name))
		}
		comps[i] = d
	}
	return comps
}

// CritPathRecord attributes one operation's end-to-end latency to the
// components above. Op is CritDurable or CritRestore; Version is the
// checkpoint version; Start is the simulated time the interval opened.
// sum(Components) + Unattributed == Total by construction.
type CritPathRecord struct {
	Op           string
	Version      int64
	Start        time.Duration
	Total        time.Duration
	Components   map[string]time.Duration
	Unattributed time.Duration
}

// Attribution is a CritPathRecord with its components in a fixed array
// indexed by Comp: what the runtime finishes and the Recorder stores,
// so neither builds a map. Recorder.Snapshot builds the records' maps.
type Attribution struct {
	Op           string
	Version      int64
	Start        time.Duration
	Total        time.Duration
	Unattributed time.Duration
	Comps        [NumComps]time.Duration
}

// AttributionOf converts rec to the array form; a component name outside
// the table panics.
func AttributionOf(rec CritPathRecord) Attribution {
	return Attribution{Op: rec.Op, Version: rec.Version, Start: rec.Start, Total: rec.Total,
		Unattributed: rec.Unattributed, Comps: CompsOf(rec.Components)}
}

// CritPath appends one attributed latency decomposition; it is Attribute
// on the record's array form.
func (r *Recorder) CritPath(rec CritPathRecord) { r.Attribute(AttributionOf(rec)) }

// Attribute appends one finished attribution to the recorder's store.
// Only its non-zero components are kept: a zero one is absent from the
// record Snapshot builds.
func (r *Recorder) Attribute(a Attribution) {
	r.crit.add(&a)
}

// critStore is a Recorder's one store of finished attributions: a header
// per record and, packed after one another, only the record's non-zero
// charges. Both live in blocks that start at critBlockMin entries and
// double up to critBlockMax; a full block is never copied, so a recorder
// that keeps a few dozen records stays small and one that keeps
// thousands does not re-copy what it holds.
type critStore struct {
	heads   blocks[critHead]
	charges blocks[uint64] // packCharge values; a record's are in one block
	n       int
}

// critHead is one stored attribution but its charges: the n packed
// charges after the previous record's are its own.
type critHead struct {
	op                         string
	version                    int64
	start, total, unattributed time.Duration
	n                          int
}

const critBlockMin, critBlockMax = slab.Block, 1024

// critBlockList is the first room of a store's list of blocks, so a
// rank's few dozen records and their charges do not regrow it.
const critBlockList = 4

// A charge is one uint64: the component index in the top 8 bits, the
// nanoseconds in the low 56 as two's complement, so that a negative
// charge reaches the invariant checks as it was recorded.
const chargeShift = 56

func packCharge(c Comp, d time.Duration) uint64 {
	if d >= 1<<(chargeShift-1) || d < -1<<(chargeShift-1) {
		panic(fmt.Sprintf("metrics: critical-path charge %v out of range", d))
	}
	return uint64(c)<<chargeShift | uint64(d)&(1<<chargeShift-1)
}

func unpackCharge(v uint64) (Comp, time.Duration) {
	return Comp(v >> chargeShift), time.Duration(int64(v<<(64-chargeShift)) >> (64 - chargeShift))
}

// blocks is an append-only sequence kept in critStore's growing blocks.
type blocks[T any] [][]T

// room returns the last block when it has room for k more elements, else
// a new one twice the last's size (at most critBlockMax, at least k).
func (b *blocks[T]) room(k int) *[]T {
	n := len(*b)
	size := critBlockMin
	if n == 0 {
		*b = make(blocks[T], 0, critBlockList)
	} else {
		last := &(*b)[n-1]
		if cap(*last)-len(*last) >= k {
			return last
		}
		size = min(2*cap(*last), critBlockMax)
	}
	*b = append(*b, make([]T, 0, max(size, k)))
	return &(*b)[n]
}

func (cs *critStore) add(a *Attribution) {
	n := 0
	for _, d := range a.Comps {
		if d != 0 {
			n++
		}
	}
	if n > 0 {
		ch := cs.charges.room(n)
		for i, d := range a.Comps {
			if d != 0 {
				*ch = append(*ch, packCharge(Comp(i), d))
			}
		}
	}
	h := cs.heads.room(1)
	*h = append(*h, critHead{op: a.Op, version: a.Version, start: a.Start, total: a.Total,
		unattributed: a.Unattributed, n: n})
	cs.n++
}

// each calls fn on every stored record in order, with its packed charges.
func (cs *critStore) each(fn func(h *critHead, charges []uint64)) {
	bi, off := 0, 0
	for _, hb := range cs.heads {
		for i := range hb {
			h := &hb[i]
			var ch []uint64
			if h.n > 0 {
				if off+h.n > len(cs.charges[bi]) { // add opened the next block
					bi, off = bi+1, 0
				}
				ch = cs.charges[bi][off : off+h.n]
				off += h.n
			}
			fn(h, ch)
		}
	}
}

// records builds the stored attributions as CritPathRecords, each with a
// Components map of its own, never nil.
func (cs *critStore) records() []CritPathRecord {
	if cs.n == 0 {
		return nil
	}
	out := make([]CritPathRecord, 0, cs.n)
	cs.each(func(h *critHead, charges []uint64) {
		comps := make(map[string]time.Duration, len(charges))
		for _, v := range charges {
			c, d := unpackCharge(v)
			comps[CompNames[c]] = d
		}
		out = append(out, CritPathRecord{Op: h.op, Version: h.version, Start: h.start, Total: h.total,
			Components: comps, Unattributed: h.unattributed})
	})
	return out
}

// CritPathBreakdown aggregates the records for one operation kind:
// how many there were, their summed totals, and the summed per-component
// attribution (including any unattributed residue under
// CompUnattributed).
func (s Summary) CritPathBreakdown(op string) (count int64, total time.Duration, comps map[string]time.Duration) {
	comps = map[string]time.Duration{}
	for _, rec := range s.CritPaths {
		if rec.Op != op {
			continue
		}
		count++
		total += rec.Total
		for c, d := range rec.Components {
			comps[c] += d
		}
		if rec.Unattributed != 0 {
			comps[CompUnattributed] += rec.Unattributed
		}
	}
	return count, total, comps
}

// CritPathUnattributed sums the unattributed residue across all records
// — the latency the analyzer could not explain. Zero on a healthy run.
func (s Summary) CritPathUnattributed() time.Duration {
	var total time.Duration
	for _, rec := range s.CritPaths {
		total += rec.Unattributed
	}
	return total
}

// sortCritPaths orders records deterministically for merged summaries.
func sortCritPaths(recs []CritPathRecord) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Total < b.Total
	})
}
