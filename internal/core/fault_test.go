package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"score/internal/fabric"
	"score/internal/lifecycle"
	"score/internal/payload"
	"score/internal/simclock"
)

// deadLink is an interceptor that fails every transfer.
func deadLink(msg string) fabric.TransferInterceptor {
	err := errors.New(msg)
	return func(string, int64) fabric.FaultDecision {
		return fabric.FaultDecision{Err: err}
	}
}

// TestPCIeOutageLeavesNoInflightReplica is the runD2H/runH2F error-path
// regression: a persistent PCIe outage must not leave any replica parked
// in WRITE_IN_PROGRESS/READ_IN_PROGRESS (which would pin cache space
// forever), must release the host reservation it rolled back, and must
// keep the checkpoint readable from the GPU copy that never left.
func TestPCIeOutageLeavesNoInflightReplica(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		_, pcie := r.cluster.Nodes[0].GPULinks(0)
		pcie.SetInterceptor(deadLink("pcie outage"))

		data := make([]byte, 256*1024)
		for i := range data {
			data[i] = byte(i)
		}
		in := payload.NewReal(data)
		if err := r.client.Checkpoint(0, in); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatalf("WaitFlush must drain despite the outage: %v", err)
		}

		r.client.mu.Lock()
		ck := r.client.ckpts[0]
		if !ck.flushAborted {
			t.Error("flush not marked aborted after every route failed")
		}
		for tier, rep := range ck.replicas {
			if rep == nil {
				continue
			}
			switch st := rep.fsm.State(); st {
			case lifecycle.WriteInProgress, lifecycle.ReadInProgress:
				t.Errorf("tier %v replica stuck in-flight (%v)", Tier(tier), st)
			}
		}
		r.client.mu.Unlock()

		if _, host := r.client.Resident(); host != 0 {
			t.Errorf("host cache holds %d residents; the rolled-back reservation leaked", host)
		}

		// The GPU copy never left the device, so the restore still works.
		out, err := r.client.Restore(0)
		if err != nil {
			t.Fatalf("restore from the surviving GPU copy: %v", err)
		}
		if err := payload.Verify(in, out.Bytes()); err != nil {
			t.Errorf("restored payload corrupt: %v", err)
		}

		s := r.client.Metrics().Snapshot()
		if s.FlushAborts < 1 {
			t.Errorf("FlushAborts = %d, want >= 1", s.FlushAborts)
		}
		if s.TotalRetries() == 0 {
			t.Error("outage produced no retries")
		}
		got := r.client.DegradedTiers()
		if len(got) != 2 || got[0] != TierHost || got[1] != TierSSD {
			t.Errorf("DegradedTiers = %v, want [host ssd]", got)
		}
	})
}

// TestTransientNVMeFailureRetriesThrough verifies the jittered-backoff
// retry loop: two transient NVMe failures are absorbed without degrading
// the tier, and the flush lands on the SSD as usual.
func TestTransientNVMeFailureRetriesThrough(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		var calls atomic.Int64
		fail := errors.New("nvme hiccup")
		r.cluster.Nodes[0].NVMe.SetInterceptor(func(string, int64) fabric.FaultDecision {
			if calls.Add(1) <= 2 {
				return fabric.FaultDecision{Err: fail}
			}
			return fabric.FaultDecision{}
		})

		if err := r.client.Checkpoint(0, pay(MB)); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		s := r.client.Metrics().Snapshot()
		if s.Retries["ssd"] != 2 {
			t.Errorf("ssd retries = %d, want 2", s.Retries["ssd"])
		}
		if tiers := r.client.DegradedTiers(); len(tiers) != 0 {
			t.Errorf("transient failure degraded tiers %v", tiers)
		}
		r.client.mu.Lock()
		rep := r.client.ckpts[0].replicas[TierSSD]
		r.client.mu.Unlock()
		if rep == nil || rep.fsm.State() != lifecycle.Flushed {
			t.Error("SSD replica not FLUSHED after retried write")
		}
	})
}

// TestSacrificialEvictionReportsErrLost: when no durable route exists and
// cache pressure forces the aborted checkpoint out, a later restore must
// fail definitively with ErrLost — never hang, never return garbage.
func TestSacrificialEvictionReportsErrLost(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		_, pcie := r.cluster.Nodes[0].GPULinks(0)
		pcie.SetInterceptor(deadLink("pcie outage"))

		// 6 x 1MB through a 4MB GPU cache: at least two sacrificial
		// evictions. Every Checkpoint must still complete (fail-open).
		const n = 6
		for v := 0; v < n; v++ {
			if err := r.client.Checkpoint(ID(v), pay(MB)); err != nil {
				t.Fatalf("checkpoint %d wedged: %v", v, err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		lost := 0
		for v := 0; v < n; v++ {
			_, err := r.client.Restore(ID(v))
			switch {
			case err == nil:
			case errors.Is(err, ErrLost):
				lost++
			default:
				t.Errorf("restore %d: %v, want nil or ErrLost", v, err)
			}
		}
		if lost == 0 {
			t.Error("no checkpoint reported ErrLost despite forced eviction")
		}
		if s := r.client.Metrics().Snapshot(); s.FlushAborts < n {
			t.Errorf("FlushAborts = %d, want >= %d", s.FlushAborts, n)
		}
	})
}

// TestSSDOutageReroutesFlushToPFS: a dead NVMe link degrades the SSD tier
// and the flush chain lands the checkpoint on the PFS instead, durably.
func TestSSDOutageReroutesFlushToPFS(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		r.cluster.Nodes[0].NVMe.SetInterceptor(deadLink("nvme outage"))

		if err := r.client.Checkpoint(0, pay(MB)); err != nil {
			t.Fatal(err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatalf("flush must reroute to PFS: %v", err)
		}
		r.client.mu.Lock()
		ck := r.client.ckpts[0]
		pfsRep := ck.replicas[TierPFS]
		aborted := ck.flushAborted
		r.client.mu.Unlock()
		if aborted {
			t.Error("flush aborted despite a healthy PFS route")
		}
		if pfsRep == nil || pfsRep.fsm.State() != lifecycle.Flushed {
			t.Error("PFS replica not FLUSHED after reroute")
		}
		if tiers := r.client.DegradedTiers(); len(tiers) != 1 || tiers[0] != TierSSD {
			t.Errorf("DegradedTiers = %v, want [ssd]", tiers)
		}
		if s := r.client.Metrics().Snapshot(); s.Degradations["ssd"] != 1 {
			t.Errorf("ssd degradations = %d, want 1", s.Degradations["ssd"])
		}
	})
}

// TestOversizeCheckpointSyncFlushes: a checkpoint larger than the GPU
// cache falls back to a synchronous flush (§2 condition 4) instead of
// failing, and lands on the host tier.
func TestOversizeCheckpointSyncFlushes(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, nil)
		defer r.client.Close()
		if err := r.client.Checkpoint(0, pay(6*MB)); err != nil {
			t.Fatalf("oversize checkpoint: %v", err)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		s := r.client.Metrics().Snapshot()
		if s.SyncFlushes != 1 {
			t.Errorf("SyncFlushes = %d, want 1", s.SyncFlushes)
		}
		if _, err := r.client.Restore(0); err != nil {
			t.Errorf("restore of sync-flushed checkpoint: %v", err)
		}
	})
}
