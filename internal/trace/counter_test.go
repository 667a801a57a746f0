package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestCounterEventsSortedAndExported(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	// Out-of-order recording (two samplers interleaving) must still
	// export a chronological counter track.
	tr.Counter(0, "cache.gpu.used_bytes", 2*time.Millisecond, 4096)
	tr.Counter(0, "cache.gpu.used_bytes", time.Millisecond, 1024)
	tr.Counter(1, "link.pcie1.inflight", 3*time.Millisecond, 2)

	cs := tr.Counters()
	if len(cs) != 3 {
		t.Fatalf("Counters() returned %d events, want 3", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].At < cs[i-1].At {
			t.Errorf("counters out of order: %v after %v", cs[i].At, cs[i-1].At)
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
		if e.Name == "cache.gpu.used_bytes" && e.Ts == 1000 {
			if v := e.Args["value"].(float64); v != 1024 {
				t.Errorf("counter at 1ms carries value %v, want 1024", v)
			}
		}
	}
	if counterEvents != 3 {
		t.Errorf("exported %d Chrome counter (ph=C) events, want 3", counterEvents)
	}
}

func TestNilTracerCounterIsNoop(t *testing.T) {
	var tr *Tracer
	tr.Counter(0, "x", time.Millisecond, 1) // must not panic
	if got := tr.Counters(); got != nil {
		t.Errorf("nil tracer Counters() = %v, want nil", got)
	}
}

// TestCounterOrderIgnoresArrivalOrder: samples tied on time, GPU and
// name are ordered by value, -0 before 0 included, so the export does
// not depend on which of them arrived first.
func TestCounterOrderIgnoresArrivalOrder(t *testing.T) {
	exports := map[string]bool{}
	for _, negativeFirst := range []bool{true, false} {
		tr := New(func() time.Duration { return 0 })
		for i := 0; i < 20; i++ {
			a, b := 0.0, math.Copysign(0, -1)
			if negativeFirst {
				a, b = b, a
			}
			tr.Counter(0, "x", time.Millisecond, a)
			tr.Counter(0, "x", time.Millisecond, b)
		}
		exports[string(bothExports(t, tr))] = true
	}
	if len(exports) != 1 {
		t.Errorf("two arrival orders of the same samples export %d different documents", len(exports))
	}
}
