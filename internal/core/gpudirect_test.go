package core

import (
	"testing"
	"time"

	"score/internal/payload"
	"score/internal/simclock"
)

func TestGPUDirectBypassesHostCache(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.GPUDirectStorage = true })
		defer r.client.Close()
		const n = 12
		for i := n - 1; i >= 0; i-- {
			r.client.PrefetchEnqueue(ID(i))
		}
		for i := ID(0); i < n; i++ {
			if err := r.client.Checkpoint(i, payload.NewVirtual(1*MB)); err != nil {
				t.Fatal(err)
			}
			r.gpu.Compute(time.Millisecond)
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		// The host cache must be untouched the whole way.
		if _, host := r.client.Resident(); host != 0 {
			t.Errorf("host cache holds %d replicas under GPUDirect", host)
		}
		for i := ID(0); i < n; i++ {
			ck := r.client.ckpts[i]
			if ck.replicas[TierHost] != nil {
				t.Errorf("checkpoint %d has a host replica under GPUDirect", i)
			}
			if !ck.dataOn(TierSSD) {
				t.Errorf("checkpoint %d not on SSD", i)
			}
		}

		r.client.PrefetchStart()
		for i := ID(n - 1); i >= 0; i-- {
			if _, err := r.client.Restore(i); err != nil {
				t.Fatalf("restore %d: %v", i, err)
			}
			r.gpu.Compute(2 * time.Millisecond)
		}
		if _, host := r.client.Resident(); host != 0 {
			t.Errorf("host cache holds %d replicas after GPUDirect restores", host)
		}
		if err := r.client.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGPUDirectRoundTripRealData(t *testing.T) {
	run(t, func(clk *simclock.Virtual) {
		r := newRig(t, clk, func(p *Params) { p.GPUDirectStorage = true })
		defer r.client.Close()
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(i)
		}
		in := payload.NewReal(data)
		// Enough checkpoints to force GPU-cache eviction of version 0,
		// so its restore exercises the direct SSD→GPU promotion.
		if err := r.client.Checkpoint(0, in); err != nil {
			t.Fatal(err)
		}
		for i := ID(1); i < 8; i++ {
			if err := r.client.Checkpoint(i, payload.NewVirtual(1*MB)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.client.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		out, err := r.client.Restore(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := payload.Verify(in, out.Bytes()); err != nil {
			t.Error(err)
		}
	})
}
