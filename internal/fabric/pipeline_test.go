package fabric

import (
	"errors"
	"testing"
	"time"

	"score/internal/simclock"
)

// TestPipelinedDegeneratesToMonolithic: chunkSize <= 0 (and chunkSize >=
// size) must reproduce the store-and-forward Path.TryTransfer timing exactly.
func TestPipelinedDegeneratesToMonolithic(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		p := Path{
			NewLink(clk, "a", 1*GB, 5*time.Millisecond),
			NewLink(clk, "b", 2*GB, 3*time.Millisecond),
		}
		mono := mustTransfer(t, p, 1*GB)
		for _, cs := range []int64{0, -1, 1 * GB, 2 * GB} {
			d, err := p.TryPipelinedTransfer(1*GB, cs)
			if err != nil {
				t.Fatalf("chunkSize=%d: %v", cs, err)
			}
			if d != mono {
				t.Errorf("chunkSize=%d took %v, want monolithic %v", cs, d, mono)
			}
		}
	})
}

// TestPipelinedByteConservation: chunking must not create or lose bytes —
// every hop carries exactly the payload size, split into ceil(size/chunk)
// transfers, including a short tail chunk.
func TestPipelinedByteConservation(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		links := []*Link{
			NewLink(clk, "a", 1*GB, 0),
			NewLink(clk, "b", 1*GB, 0),
			NewLink(clk, "c", 1*GB, 0),
		}
		p := Path{links[0], links[1], links[2]}
		const size, chunk = 10*GB/10 + 7, GB / 10 // non-multiple: 10 full chunks + 7-byte tail
		st, err := p.TryPipelined(size, chunk)
		if err != nil {
			t.Fatal(err)
		}
		wantChunks := 11
		if st.Chunks != wantChunks {
			t.Errorf("Chunks = %d, want %d", st.Chunks, wantChunks)
		}
		if st.Bytes != size {
			t.Errorf("Bytes = %d, want %d", st.Bytes, size)
		}
		for _, l := range links {
			bytes, transfers, _ := l.Stats()
			if bytes != size {
				t.Errorf("link %s carried %d bytes, want %d", l.Name(), bytes, size)
			}
			if transfers != int64(wantChunks) {
				t.Errorf("link %s saw %d transfers, want %d", l.Name(), transfers, wantChunks)
			}
			if l.InFlight() != 0 {
				t.Errorf("link %s has %d transfers still in flight", l.Name(), l.InFlight())
			}
		}
		if st.Overlap() <= 0 {
			t.Errorf("pipelined stream reported no overlap (duration %v, hop busy %v)",
				st.Duration, st.HopBusy)
		}
	})
}

// TestPipelinedAcceptance reproduces the acceptance criterion: a 2 GiB
// flush over paper-bandwidth PCIe (25 GB/s) + NVMe (16 GB/s) in 128 MiB
// chunks must finish in at most 0.7x the monolithic store-and-forward
// time. (Analytically: mono ~ 2/25 + 2/16 ~ 0.205 s, pipelined ~ bound by
// the NVMe hop + one PCIe chunk ~ 0.133 s, ratio ~ 0.65.)
func TestPipelinedAcceptance(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		const size, chunk = 2 * GB, 128 << 20
		mono := mustTransfer(t, Path{
			NewLink(clk, "pcie-m", 25*GB, 10*time.Microsecond),
			NewLink(clk, "nvme-m", 16*GB, 10*time.Microsecond),
		}, size)
		pipe, err := Path{
			NewLink(clk, "pcie-p", 25*GB, 10*time.Microsecond),
			NewLink(clk, "nvme-p", 16*GB, 10*time.Microsecond),
		}.TryPipelinedTransfer(size, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if limit := time.Duration(float64(mono) * 0.7); pipe > limit {
			t.Errorf("pipelined %v > 0.7x monolithic %v (limit %v)", pipe, mono, limit)
		}
	})
}

// TestPipelinedFairShareOnSharedLink: a pipelined stream must occupy a
// single fair-share slot per link, so two concurrent streams crossing a
// shared bottleneck each run at half speed — exactly like two monolithic
// transfers would.
func TestPipelinedFairShareOnSharedLink(t *testing.T) {
	const size, chunk = 1 * GB, GB / 8

	solo := func() time.Duration {
		clk := simclock.NewVirtual()
		var d time.Duration
		clk.Run(func() {
			p := Path{NewLink(clk, "shared", 1*GB, 0), NewLink(clk, "down", 4*GB, 0)}
			d, _ = p.TryPipelinedTransfer(size, chunk)
		})
		return d
	}()

	clk := simclock.NewVirtual()
	clk.Run(func() {
		shared := NewLink(clk, "shared", 1*GB, 0)
		durs := make([]time.Duration, 2)
		wg := simclock.NewWaitGroup(clk)
		for i := 0; i < 2; i++ {
			i := i
			down := NewLink(clk, "down", 4*GB, 0)
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				durs[i], _ = Path{shared, down}.TryPipelinedTransfer(size, chunk)
			})
		}
		wg.Wait()
		for i, d := range durs {
			if d < time.Duration(float64(solo)*1.9) || d > time.Duration(float64(solo)*2.1) {
				t.Errorf("stream %d took %v under contention, want ~2x solo %v", i, d, solo)
			}
		}
		if _, _, peak := shared.Stats(); peak != 2 {
			t.Errorf("shared link peak concurrency = %d, want 2 (one slot per stream)", peak)
		}
	})
}

// TestPipelinedFaultAborts: an injected failure mid-stream on a downstream
// hop must surface as the stream error, stop the upstream feeder early,
// charge no bytes for the failed chunk, and leave nothing in flight.
func TestPipelinedFaultAborts(t *testing.T) {
	clk := simclock.NewVirtual()
	clk.Run(func() {
		const size, chunk = 1 * GB, GB / 8 // 8 chunks
		up := NewLink(clk, "up", 1*GB, 0)
		down := NewLink(clk, "down", 1*GB, 0)
		boom := errors.New("boom")
		calls := 0
		down.SetInterceptor(func(link string, sz int64) FaultDecision {
			calls++
			if calls == 3 {
				return FaultDecision{Err: boom}
			}
			return FaultDecision{}
		})
		st, err := Path{up, down}.TryPipelined(size, chunk)
		if !errors.Is(err, boom) {
			t.Fatalf("stream error = %v, want %v", err, boom)
		}
		if upB, _, _ := up.Stats(); upB >= size {
			t.Errorf("upstream carried the full %d bytes despite the abort", upB)
		}
		if downB, _, _ := down.Stats(); downB != 2*chunk {
			t.Errorf("downstream carried %d bytes, want %d (2 chunks before the fault)", downB, 2*chunk)
		}
		if up.InFlight() != 0 || down.InFlight() != 0 {
			t.Errorf("in-flight after abort: up=%d down=%d, want 0", up.InFlight(), down.InFlight())
		}
		if st.Duration <= 0 {
			t.Errorf("aborted stream reported non-positive duration %v", st.Duration)
		}
	})
}

// TestStreamWakesOnlyItsCaller pins a stream's wake count: a K-chunk
// stream resumes its caller K+1 times — once per chunk it feeds into hop
// 0 and once when the last downstream hop exits — and resumes no other
// task, however many hops it crosses and whatever their latency. The
// downstream hops, the link latencies and the pacer timers are events.
func TestStreamWakesOnlyItsCaller(t *testing.T) {
	for _, tc := range []struct {
		name string
		lat  time.Duration
		hops int
	}{
		{"2 hops", 0, 2},
		{"2 hops with latency", time.Microsecond, 2},
		{"3 hops", 0, 3},
		{"3 hops with latency", 2 * time.Microsecond, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const size, chunk = 10*GB/10 + 7, GB / 10 // K = 11: 10 full chunks and a tail
			clk := simclock.NewVirtual()
			var wakes uint64
			var st PipelineStats
			clk.Run(func() {
				p := make(Path, tc.hops)
				for h := range p {
					p[h] = NewLink(clk, "hop", float64(1+h%2)*GB, tc.lat)
				}
				before := simclock.EventCount()
				var err error
				if st, err = p.TryPipelined(size, chunk); err != nil {
					t.Fatal(err)
				}
				wakes = simclock.EventCount() - before
			})
			if got, want := wakes, uint64(st.Chunks+1); st.Chunks != 11 || got != want {
				t.Errorf("a %d-chunk stream cost %d wakes, want %d", st.Chunks, got, want)
			}
		})
	}
}
