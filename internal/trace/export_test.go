package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"score/internal/metrics"
	"score/internal/simclock"
)

// chromeEvent is the trace-event JSON schema the streaming export
// reproduces ("X" complete events, "C" counter samples, "s"/"t"/"f"
// flow arrows, plus "M" metadata rows).
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`            // microseconds
	Dur  float64                `json:"dur,omitempty"` // microseconds
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	ID   string                 `json:"id,omitempty"` // flow chain ID
	BP   string                 `json:"bp,omitempty"` // flow binding point
	Args map[string]interface{} `json:"args,omitempty"`
}

// writeJSONReflect is the export as it was before it streamed: every
// event materialised as a chromeEvent and the document handed to
// encoding/json, the counter samples given in export order. It is the
// reference WriteJSON must match byte for byte.
func writeJSONReflect(t *Tracer, counters []counterEvent, w io.Writer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, len(events)+len(counters)+16)

	seen := map[[2]int]bool{}
	for _, e := range events {
		key := [2]int{e.GPU, int(e.Track)}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out,
			chromeEvent{Name: "process_name", Ph: "M", Pid: e.GPU, Tid: int(e.Track),
				Args: map[string]interface{}{"name": fmt.Sprintf("GPU %d", e.GPU)}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: e.GPU, Tid: int(e.Track),
				Args: map[string]interface{}{"name": e.Track.String()}},
		)
	}
	for _, e := range events {
		var args map[string]interface{}
		if e.Flow != 0 {
			args = map[string]interface{}{"flow": e.Flow}
		}
		out = append(out, chromeEvent{
			Name: e.Name, Cat: e.Category, Ph: "X",
			Ts:  float64(e.Start) / float64(time.Microsecond),
			Dur: float64(e.Duration) / float64(time.Microsecond),
			Pid: e.GPU, Tid: int(e.Track), Args: args,
		})
	}
	out = append(out, flowEventsReflect(events)...)
	for _, c := range counters {
		out = append(out, chromeEvent{
			Name: c.Name, Ph: "C",
			Ts:   float64(c.At) / float64(time.Microsecond),
			Args: map[string]interface{}{"value": c.Value},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{"traceEvents": out})
}

func flowEventsReflect(events []Event) []chromeEvent {
	chains := map[int64][]Event{}
	var ids []int64
	for _, e := range events {
		if e.Flow == 0 {
			continue
		}
		if _, ok := chains[e.Flow]; !ok {
			ids = append(ids, e.Flow)
		}
		chains[e.Flow] = append(chains[e.Flow], e)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var out []chromeEvent
	for _, id := range ids {
		chain := chains[id]
		if len(chain) < 2 {
			continue
		}
		name, idStr := chain[0].Name, fmt.Sprintf("%d", id)
		for i, e := range chain {
			ev := chromeEvent{
				Name: name, Cat: "flow", Ts: float64(e.Start) / float64(time.Microsecond),
				Pid: e.GPU, Tid: int(e.Track), ID: idStr,
			}
			switch {
			case i == 0:
				ev.Ph = "s"
			case i == len(chain)-1:
				ev.Ph = "f"
				ev.BP = "e"
			default:
				ev.Ph = "t"
			}
			out = append(out, ev)
		}
	}
	return out
}

// bothExports runs the streaming export and the reference over tr and
// fails unless bytes and errors agree.
func bothExports(t testing.TB, tr *Tracer) []byte {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := tr.WriteJSON(&got), writeJSONReflect(tr, counterEvents(tr), &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("WriteJSON error = %v, reference error = %v", gotErr, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-60, 0)
		t.Fatalf("exports differ at byte %d (%d vs %d bytes):\n got  …%q\n want …%q",
			i, len(g), len(w), g[lo:min(i+60, len(g))], w[lo:min(i+60, len(w))])
	}
	return got.Bytes()
}

// Strings that exercise every branch of the JSON string escaper.
var trickyStrings = []string{
	"", "flush", "checkpoint 7", "ckpt 3 gpu→host", `say "hi"`, `back\slash`, "<script>&amp;</script>",
	"tab\there", "line\nbreak", "cr\rlf", "bell\a", "\b\f", "nul\x00byte", "esc\x1b[0m", "del\x7f",
	"café", "\u2028line sep", "para\u2029sep", "\U0001F600", "bad\xffutf8", "\xc3", "trunc\xe2\x82",
	"\xed\xa0\x80", "mixed <\xfe> & \u2028 \"q\" \\",
}

var trickyValues = []float64{
	0, -1, 1, 0.5, 4096, 1 << 40, 1e-7, -1e-7, 3.5e-9, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 1.5e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 1.0 / 3, 123456.789,
	1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 62),
}

// randomTracer fills a tracer with spans and sampled counters drawn from
// the tricky sets: zero and non-zero durations, flows shared by no, one
// and many spans, duplicate entries, several GPUs and tracks, probes
// sharing names and samples sharing instants.
func randomTracer(rng *rand.Rand) *Tracer {
	var now time.Duration
	tr := New(func() time.Duration { return now })
	pick := func() string { return trickyStrings[rng.Intn(len(trickyStrings))] }
	flows := []int64{0, 0, 0, 1, 2, 2, 2, 2, -5, 1<<32 | 7, math.MaxInt64}
	versions := []int64{0, 3, 12, 100, -7, math.MinInt64}
	for n := rng.Intn(40); n > 0; n-- {
		start := time.Duration(rng.Int63n(int64(time.Second)))
		if rng.Intn(4) == 0 {
			start = time.Duration(rng.Intn(3)) * time.Millisecond // collide on purpose
		}
		var dur time.Duration
		if rng.Intn(3) > 0 {
			dur = time.Duration(rng.Int63n(int64(time.Minute)))
		}
		gpu, track, cat, name, flow := rng.Intn(3), Track(rng.Intn(7)), pick(), pick(), flows[rng.Intn(len(flows))]
		if rng.Intn(3) > 0 {
			tr.RecordFlow(gpu, track, cat, name, start, dur, flow)
			continue
		}
		now = start
		span := tr.SpanFlow(gpu, track, cat, name, versions[rng.Intn(len(versions))], flow)
		now = start + dur
		span.End()
	}
	now = 0
	runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
		for n := rng.Intn(6); n > 0; n-- {
			s.Register(pick(), func() float64 { return trickyValues[rng.Intn(len(trickyValues))] })
		}
		ticks(clk, rng.Intn(8))
		if rng.Intn(2) == 0 {
			clk.Sleep(sampleEvery / 2) // the final sample at a tick's instant
		}
	})
	return tr
}

// TestWriteJSONMatchesEncodingJSON is the export's byte contract: on
// seeded random tracers the streamed document equals the reflective one.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	bothExports(t, nil)
	bothExports(t, New(func() time.Duration { return 0 }))
	for seed := int64(0); seed < 300; seed++ {
		bothExports(t, randomTracer(rand.New(rand.NewSource(seed))))
	}
	// One tracer large enough to flush the buffer many times, with a name
	// longer than the buffer in the middle.
	rng := rand.New(rand.NewSource(1))
	tr := New(func() time.Duration { return 0 })
	long := string(bytes.Repeat([]byte("x<"), exportBufLen))
	for i := 0; i < 5000; i++ {
		name := trickyStrings[rng.Intn(len(trickyStrings))]
		if i == 2500 {
			name = long
		}
		tr.RecordFlow(i%8, Track(i%5), "flush", name, time.Duration(i)*time.Microsecond+time.Duration(rng.Intn(999)),
			time.Duration(rng.Intn(1e6)), int64(i%50))
	}
	runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
		value := func() float64 { return rng.Float64() * float64(rng.Intn(1<<30)) }
		for _, name := range trickyStrings[:6] {
			s.Register(name, value)
		}
		ticks(clk, 1000)
		s.Register(long, value) // in the final sample only
	})
	bothExports(t, tr)
}

// TestWriteJSONEveryStringAndValue pushes each tricky string and value
// through every position the export writes one in.
func TestWriteJSONEveryStringAndValue(t *testing.T) {
	for _, s := range trickyStrings {
		tr := New(func() time.Duration { return 0 })
		tr.RecordFlow(0, TrackApp, s, s, time.Millisecond, time.Millisecond, 9)
		tr.RecordFlow(1, TrackD2H, "later", "later", 2*time.Millisecond, 0, 9)
		runSampled(tr, 0, func(sm *metrics.Sampler, _ *simclock.Virtual) { sm.Register(s, func() float64 { return 1 }) })
		bothExports(t, tr)
	}
	for _, v := range trickyValues {
		tr := New(func() time.Duration { return 0 })
		runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
			s.Register("v", func() float64 { return v })
			ticks(clk, 1)
		})
		bothExports(t, tr)
	}
}

func FuzzChromeString(f *testing.F) {
	for _, s := range trickyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr := New(func() time.Duration { return 0 })
		tr.Record(0, TrackApp, s, s, time.Microsecond, time.Nanosecond)
		runSampled(tr, 0, func(sm *metrics.Sampler, _ *simclock.Virtual) { sm.Register(s, func() float64 { return 1 }) })
		out := bothExports(t, tr)
		if !json.Valid(out) {
			t.Fatalf("export of %q is not valid JSON", s)
		}
	})
}

// TestWriteJSONUnsupportedValues: NaN and ±Inf are the values JSON cannot
// carry; both encoders refuse them with the same text and write nothing.
func TestWriteJSONUnsupportedValues(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := New(func() time.Duration { return 0 })
		tr.Record(0, TrackApp, "c", "span", 0, time.Millisecond)
		runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
			s.Register("fine", func() float64 { return 1 })
			ticks(clk, 1)
			s.Register("broken", func() float64 { return v })
		})
		var buf bytes.Buffer
		err := tr.WriteJSON(&buf)
		if err == nil {
			t.Fatalf("value %v exported without error", v)
		}
		if buf.Len() != 0 {
			t.Errorf("value %v: %d bytes written before the error", v, buf.Len())
		}
		bothExports(t, tr)
	}
}

// failingWriter accepts one Write and fails every later one.
type failingWriter struct {
	writes int
	err    error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes >= 2 {
		return 0, f.err
	}
	return len(p), nil
}

func TestWriteJSONStopsAtFirstWriteError(t *testing.T) {
	tr := New(func() time.Duration { return 0 })
	for i := 0; i < 20000; i++ { // several buffers' worth
		tr.Record(i%8, TrackD2H, "flush", "flush 12 gpu→host", time.Duration(i), time.Microsecond)
	}
	runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
		s.Register("cache.gpu.used_bytes", func() float64 { return float64(clk.Now()) })
		ticks(clk, 20000)
	})
	w := &failingWriter{err: errors.New("disk full")}
	if err := tr.WriteJSON(w); !errors.Is(err, w.err) {
		t.Fatalf("WriteJSON = %v, want the writer's error", err)
	}
	if w.writes != 2 {
		t.Errorf("writer saw %d writes, want 2 (none after the failed one)", w.writes)
	}
}

// TestWriteJSONAllocationsDoNotGrowWithEvents: the export allocates its
// sorted index of the spans, its buffer, the row map and one quoted
// string per counter name — not per event. Every other span is
// versioned and ties on start, GPU and track with the one before it, so
// the sort formats its name to compare the two.
func TestWriteJSONAllocationsDoNotGrowWithEvents(t *testing.T) {
	allocs := func(n int) float64 {
		clk := &fakeClock{}
		tr := New(clk.Now)
		for i := 0; i < n; i++ {
			gpu, track, start := i/2%8, Track(i/2%5), time.Duration(i/2)*time.Microsecond
			if i%2 == 0 {
				tr.Record(gpu, track, "flush", "flush 12 gpu→host", start, time.Microsecond)
				continue
			}
			clk.now = start
			span := tr.SpanFlow(gpu, track, "flush", "flush <&>→ssd", int64(i), int64(i%50))
			clk.now += time.Microsecond
			span.End()
		}
		runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
			s.Register("node0.gpu3.cache.gpu.score_p_mean", func() float64 { return float64(clk.Now()) / 3 })
			ticks(clk, n)
		})
		return testing.AllocsPerRun(5, func() {
			if err := tr.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(5000), allocs(20000)
	t.Logf("WriteJSON allocations: %.0f at 10k entries, %.0f at 40k", small, large)
	if large-small >= 16 {
		t.Errorf("WriteJSON allocations grow with the event count: %.0f at 10k entries, %.0f at 40k", small, large)
	}
}

// TestAppendMicrosMatchesFloatPath is the differential for the integer
// timestamp form: below 10^15 ns it must print what the float path
// prints, byte for byte, and at and above that bound and for negative
// values it is the float path.
func TestAppendMicrosMatchesFloatPath(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		got, want := appendMicros(nil, d), appendJSONFloat(nil, float64(d)/1e3)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendMicros(%d) = %s, the float path %s", int64(d), got, want)
		}
	}
	for _, d := range []time.Duration{0, 1, 10, 100, 999, 1000, 1001, 1010, 1100, 123456789, 1e15 - 1, 1e15, 1e15 + 1, 1<<53 - 1, 1 << 53, math.MaxInt64} {
		check(d)
		check(-d)
	}
	check(math.MinInt64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		check(time.Duration(rng.Int63n(1e15)))
		check(time.Duration(rng.Int63n(int64(1) << rng.Intn(50)))) // every magnitude
		check(-time.Duration(rng.Int63n(1e15)))
	}
}

// TestCountersStreamInPlace: the counter tracks are written from the
// sampler's columns, with no copy of the store, whether or not a final
// sample lands at a tick's instant and has to merge into it; both match
// the reference byte for byte, including same-name ties of -0 and 0
// that an unstable sort could swap, and a counter window that wraps.
func TestCountersStreamInPlace(t *testing.T) {
	names := []string{"a.used", "b.resident", "b.resident", "c<score>"}
	const ticksTaken = 4000
	for _, final := range []bool{false, true} {
		tr := New(func() time.Duration { return 0 })
		tr.SetCapacity(1, 3*blockLen+5) // wraps, across blocks
		runSampled(tr, 0, func(s *metrics.Sampler, clk *simclock.Virtual) {
			for i, name := range names {
				s.Register(name, func() float64 {
					switch i {
					case 1:
						return math.Copysign(0, -1) // -0 before its duplicate's 0
					case 2:
						return 0
					}
					return float64(clk.Now()) * float64(i)
				})
			}
			ticks(clk, ticksTaken)
			if final {
				clk.Sleep(sampleEvery / 2)
			}
		})
		bothExports(t, tr)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := tr.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if copied := after.TotalAlloc - before.TotalAlloc; copied >= 3*blockLen*16 {
			t.Errorf("final same-instant sample %v: export allocated %d bytes, a copy of the counter store", final, copied)
		}
	}
}

// TestWriteJSONCopiesNoSpans: the export orders the spans through an
// index of 4 bytes a span, not a copy of them.
func TestWriteJSONCopiesNoSpans(t *testing.T) {
	const n = 20000
	tr := New(func() time.Duration { return 0 })
	for i := 0; i < n; i++ {
		tr.Record(i%8, Track(i%5), "flush", "flush 12 gpu→host", time.Duration(n-i)*time.Microsecond, time.Microsecond)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := tr.WriteJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(exportBufLen+4*n+16<<10); got > limit {
		t.Errorf("exporting %d spans allocated %d bytes, above the buffer and the index (%d)", n, got, limit)
	}
}

// TestVersionedNamesMatchFormattedNames is the differential for spans
// that store their version: versions 3, 12 and 100 on static names
// (bare, with → and <&> after the first word, with invalid UTF-8 before
// it) sharing one instant, GPU and track, beside an unversioned span,
// export the bytes the reflective encoder writes for the same spans
// named with fmt.Sprintf, and Events gives the same names in the same
// order: "checkpoint 100" before "checkpoint 12" before "checkpoint 3".
func TestVersionedNamesMatchFormattedNames(t *testing.T) {
	type static struct{ cat, head, rest string }
	names := []static{
		{"checkpoint", "checkpoint", ""},
		{"flush", "flush", " gpu→host"},
		{"prefetch", "promote", " <&>→gpu"},
		{"partner-copy", "replicate", " → partner ssd"},
		{"odd", "trunc\xe2\x82", " <\xff>"},
	}
	clk := &fakeClock{now: 5 * time.Millisecond}
	versioned, formatted := New(clk.Now), New(clk.Now)
	for i, v := range []int64{3, 12, 100} {
		for j, n := range names {
			dur, flow := time.Duration(1+i+j)*time.Microsecond, int64(1+j%2)
			span := versioned.SpanFlow(0, TrackApp, n.cat, n.head+n.rest, v, flow)
			formatted.RecordFlow(0, TrackApp, n.cat, fmt.Sprintf("%s %d%s", n.head, v, n.rest), clk.now, dur, flow)
			clk.now += dur
			span.End()
			clk.now -= dur
		}
	}
	for _, tr := range []*Tracer{versioned, formatted} {
		tr.Span(0, TrackApp, "checkpoint", "checkpoint 20")()
		tr.Span(0, TrackApp, "flush", "flush 12 gpu→host")()
	}
	var got, want bytes.Buffer
	if err := versioned.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONReflect(formatted, nil, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("export of versioned spans differs from the formatted names':\n got  %s\n want %s", got.Bytes(), want.Bytes())
	}
	gotEv, wantEv := versioned.Events(), formatted.Events()
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%d events, want %d", len(gotEv), len(wantEv))
	}
	for i := range gotEv {
		if gotEv[i] != wantEv[i] {
			t.Errorf("event %d = %+v, want %+v", i, gotEv[i], wantEv[i])
		}
	}
	if gotEv[0].Name != "checkpoint 100" || gotEv[1].Name != "checkpoint 12" {
		t.Errorf("order starts %q, %q; want checkpoint 100, then 12", gotEv[0].Name, gotEv[1].Name)
	}
}

// TestAppendJSONFloatMatchesEncodingJSON is the differential for the
// counter values, the integer form included: at its edges (-0 must stay
// "-0", and 1e15 leaves the integer form), past 2^53 and in both
// exponent forms the bytes are encoding/json's.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	values := []float64{
		math.Copysign(0, -1), 0, 1, -1, 1<<53 - 1, 1<<53 + 1, -(1<<53 - 1), 1e15 - 1, -(1e15 - 1), 1e15, 1e20, 1e21,
		0.5, -0.5, 1e-7, 4096.25, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		values = append(values, float64(rng.Int63n(2e15)-1e15), math.Trunc(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(22)))))
	}
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, encoding/json %s", v, got, want)
		}
	}
}
