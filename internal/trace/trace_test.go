package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
	"unsafe"
)

type fakeClock struct{ now time.Duration }

func (f *fakeClock) Now() time.Duration { return f.now }

func TestSpanRecordsStartAndDuration(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	clk.now = 5 * time.Millisecond
	end := tr.Span(2, TrackD2H, "flush", "ckpt 7 d2h")
	clk.now = 9 * time.Millisecond
	end()
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	if e.Start != 5*time.Millisecond || e.Duration != 4*time.Millisecond {
		t.Errorf("span = %+v", e)
	}
	if e.GPU != 2 || e.Track != TrackD2H || e.Name != "ckpt 7 d2h" {
		t.Errorf("span metadata = %+v", e)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	end := tr.Span(0, TrackApp, "x", "y") // must not panic
	end()
	if tr.Len() != 0 {
		t.Error("nil tracer recorded events")
	}
	if tr.Events() != nil {
		t.Error("nil tracer returned events")
	}
}

func TestEventsSortedByStart(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	clk.now = 10 * time.Millisecond
	endB := tr.Span(0, TrackApp, "op", "b")
	clk.now = 20 * time.Millisecond
	endB()
	clk.now = 1 * time.Millisecond
	endA := tr.Span(0, TrackApp, "op", "a")
	clk.now = 2 * time.Millisecond
	endA()
	ev := tr.Events()
	if ev[0].Name != "a" || ev[1].Name != "b" {
		t.Errorf("events not sorted: %v, %v", ev[0].Name, ev[1].Name)
	}
}

func TestWriteJSONIsValidChromeTrace(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	for gpu := 0; gpu < 2; gpu++ {
		clk.now = time.Duration(gpu+1) * time.Millisecond
		end := tr.Span(gpu, TrackPF, "prefetch", "promote 3")
		clk.now += 500 * time.Microsecond
		end()
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			complete++
			if e["dur"].(float64) != 500 {
				t.Errorf("dur = %v µs, want 500", e["dur"])
			}
		case "M":
			meta++
		}
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
	if meta != 4 { // process_name + thread_name per (gpu, track)
		t.Errorf("metadata events = %d, want 4", meta)
	}
}

func TestTrackNames(t *testing.T) {
	names := map[Track]string{
		TrackApp: "application", TrackD2H: "T_D2H flusher",
		TrackH2F: "T_H2F flusher", TrackPF: "T_PF prefetcher",
		TrackStage: "T_PF host stager",
	}
	for tr, want := range names {
		if tr.String() != want {
			t.Errorf("%d.String() = %q", int(tr), tr.String())
		}
	}
	if Track(9).String() != "Track(9)" {
		t.Error("out-of-range track")
	}
}

func TestNewRejectsNilClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(nil) did not panic")
		}
	}()
	New(nil)
}

// TestDeferredSpanAllocatesNothing: `defer tr.SpanFlow(...).End()` is
// how the runtime times an operation, once per checkpoint, flush and
// prefetch; opening and closing a span must not allocate beyond the
// store's blocks.
func TestDeferredSpanAllocatesNothing(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	op := func() {
		defer tr.SpanFlow(2, TrackD2H, "flush", "flush gpu→host", 7, 9).End()
		clk.now += time.Microsecond
	}
	if n := testing.AllocsPerRun(1000, op); n != 0 {
		t.Errorf("a deferred span allocates %.0f times, want 0", n)
	}
	if ev := tr.Events(); len(ev) != 1001 || ev[0].Duration != time.Microsecond || ev[0].Flow != 9 || ev[0].Name != "flush 7 gpu→host" {
		t.Errorf("recorded %d spans, first %+v", len(ev), ev[0])
	}
}

// TestSpanIsNoLargerThanAnEvent: storing the version cost no bytes per
// span; the GPU and track were narrowed to pay for it.
func TestSpanIsNoLargerThanAnEvent(t *testing.T) {
	if got := unsafe.Sizeof(span{}); got > 72 {
		t.Errorf("a stored span is %d bytes, above the 72 of an Event", got)
	}
}

// TestRecordingAtTheRingLimitAllocatesNothing: once the span ring is
// full, every span the runtime records overwrites the oldest in place,
// so a versioned span, closed at once or deferred, and a ledger entry
// with static strings cost no allocation at all — the version is stored
// as a number and formatted only on export.
func TestRecordingAtTheRingLimitAllocatesNothing(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now)
	tr.SetCapacity(8, 8)
	version := int64(1 << 40)
	calls := map[string]func(){
		"SpanFlow(...).End()": func() {
			tr.SpanFlow(2, TrackH2F, "flush", "flush host→ssd", version, 9).End()
		},
		"deferred SpanFlow(...).End()": func() {
			defer tr.SpanFlow(2, TrackApp, "checkpoint", "checkpoint", version, 9).End()
			clk.now += time.Microsecond
		},
		"Lifecycle": func() { tr.Lifecycle(2, version, LDurable, "ssd", "") },
	}
	for i := 0; i < 2*DefaultFlightCap; i++ { // both rings at their limit
		calls["SpanFlow(...).End()"]()
		calls["Lifecycle"]()
	}
	for what, call := range calls {
		if n := testing.AllocsPerRun(1000, call); n != 0 {
			t.Errorf("%s allocates %.0f times per call on a full ring, want 0", what, n)
		}
	}
	if events, _ := tr.Dropped(); events == 0 || tr.Len() != 8 || tr.Flight().Dropped(2) == 0 {
		t.Fatalf("rings not at their limit: %d spans held, %d dropped", tr.Len(), events)
	}
}
