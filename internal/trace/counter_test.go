package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"score/internal/metrics"
	"score/internal/simclock"
)

func TestCounterEventsSortedAndExported(t *testing.T) {
	tr := New((&fakeClock{}).Now)
	// Probes registered out of name order, one of them mid-run, must
	// still export chronological counter tracks, each instant in name
	// order.
	runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
		s.Register("link.pcie1.inflight", func() float64 { return 2 })
		ticks(clk, 2)
		s.Register("cache.gpu.used_bytes", func() float64 { return float64(clk.Now() / sampleEvery * 1024) })
		ticks(clk, 1)
	})

	cs := counterEvents(tr)
	if len(cs) != 6 { // ticks at 1, 2 and 3 µs, the final sample at 3.5 µs
		t.Fatalf("%d counter samples, want 6", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].At < cs[i-1].At || cs[i].At == cs[i-1].At && cs[i].Name <= cs[i-1].Name {
			t.Errorf("counters out of order: %+v after %+v", cs[i], cs[i-1])
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Pid  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	var counterEvents int
	for _, e := range doc.TraceEvents {
		if e.Ph != "C" {
			continue
		}
		counterEvents++
		if _, ok := e.Args["value"]; !ok {
			t.Errorf("counter event %q has no value arg", e.Name)
		}
		if e.Name == "cache.gpu.used_bytes" && e.Ts == 3 {
			if v := e.Args["value"].(float64); v != 3072 {
				t.Errorf("counter at 3µs carries value %v, want 3072", v)
			}
		}
	}
	if counterEvents != 6 {
		t.Errorf("exported %d Chrome counter (ph=C) events, want 6", counterEvents)
	}
}

// TestNilTracerCounterIsNoop: a nil tracer takes a counter source and
// shows nothing of it.
func TestNilTracerCounterIsNoop(t *testing.T) {
	var tr *Tracer
	runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
		s.Register("x", func() float64 { return 1 })
		ticks(clk, 3)
	})
	if got := counterEvents(tr); got != nil {
		t.Errorf("nil tracer shows counters %v, want nil", got)
	}
	if ev, cnt := tr.Dropped(); ev != 0 || cnt != 0 {
		t.Errorf("nil tracer Dropped = %d, %d", ev, cnt)
	}
}

// TestCounterOrderIgnoresArrivalOrder: samples tied on time, GPU and
// name are ordered by value, -0 before 0 included, so the export does
// not depend on which of them arrived first.
func TestCounterOrderIgnoresArrivalOrder(t *testing.T) {
	exports := map[string]bool{}
	for _, negativeFirst := range []bool{true, false} {
		tr := New(func() time.Duration { return 0 })
		runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
			a, b := 0.0, math.Copysign(0, -1)
			if negativeFirst {
				a, b = b, a
			}
			s.Register("x", func() float64 { return a })
			s.Register("x", func() float64 { return b })
			ticks(clk, 20)
		})
		exports[string(bothExports(t, tr))] = true
	}
	if len(exports) != 1 {
		t.Errorf("two arrival orders of the same samples export %d different documents", len(exports))
	}
}
