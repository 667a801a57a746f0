package metrics

import (
	"sort"
	"time"
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

// CritPath appends one attributed latency decomposition.
func (r *Recorder) CritPath(rec CritPathRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.CritPaths = append(r.s.CritPaths, rec)
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

func copyCritPaths(recs []CritPathRecord) []CritPathRecord {
	if len(recs) == 0 {
		return nil
	}
	out := make([]CritPathRecord, len(recs))
	for i, rec := range recs {
		cp := rec
		if rec.Components != nil {
			cp.Components = make(map[string]time.Duration, len(rec.Components))
			for k, v := range rec.Components {
				cp.Components[k] = v
			}
		}
		out[i] = cp
	}
	return out
}
