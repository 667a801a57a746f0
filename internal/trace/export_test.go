package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
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
// encoding/json. It is the reference WriteJSON must match byte for byte.
func writeJSONReflect(t *Tracer, w io.Writer) error {
	events := t.Events()
	counters := t.Counters()
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
			Pid:  c.GPU,
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
	gotErr, wantErr := tr.WriteJSON(&got), writeJSONReflect(tr, &want)
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

// randomTracer fills a tracer with spans and counter samples drawn from
// the tricky sets: zero and non-zero durations, flows shared by no, one
// and many spans, duplicate entries, several GPUs and tracks.
func randomTracer(rng *rand.Rand) *Tracer {
	tr := New(func() time.Duration { return 0 })
	pick := func() string { return trickyStrings[rng.Intn(len(trickyStrings))] }
	flows := []int64{0, 0, 0, 1, 2, 2, 2, 2, -5, 1<<32 | 7, math.MaxInt64}
	for n := rng.Intn(40); n > 0; n-- {
		start := time.Duration(rng.Int63n(int64(time.Second)))
		if rng.Intn(4) == 0 {
			start = time.Duration(rng.Intn(3)) * time.Millisecond // collide on purpose
		}
		var dur time.Duration
		if rng.Intn(3) > 0 {
			dur = time.Duration(rng.Int63n(int64(time.Minute)))
		}
		tr.RecordFlow(rng.Intn(3), Track(rng.Intn(7)), pick(), pick(), start, dur, flows[rng.Intn(len(flows))])
	}
	for n := rng.Intn(40); n > 0; n-- {
		tr.Counter(rng.Intn(2), pick(), time.Duration(rng.Intn(5))*time.Millisecond,
			trickyValues[rng.Intn(len(trickyValues))])
	}
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
		tr.Counter(0, name, time.Duration(i)*time.Millisecond, rng.Float64()*float64(rng.Intn(1<<30)))
	}
	bothExports(t, tr)
}

// TestWriteJSONEveryStringAndValue pushes each tricky string and value
// through every position the export writes one in.
func TestWriteJSONEveryStringAndValue(t *testing.T) {
	for _, s := range trickyStrings {
		tr := New(func() time.Duration { return 0 })
		tr.RecordFlow(0, TrackApp, s, s, time.Millisecond, time.Millisecond, 9)
		tr.RecordFlow(1, TrackD2H, "later", "later", 2*time.Millisecond, 0, 9)
		tr.Counter(0, s, 0, 1)
		bothExports(t, tr)
	}
	for _, v := range trickyValues {
		tr := New(func() time.Duration { return 0 })
		tr.Counter(0, "v", time.Duration(int64(v)), v)
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
		tr.Counter(0, "fine", 0, 1)
		tr.Counter(0, "broken", time.Millisecond, v)
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
		tr.Counter(0, "cache.gpu.used_bytes", time.Duration(i), float64(i))
	}
	w := &failingWriter{err: errors.New("disk full")}
	if err := tr.WriteJSON(w); !errors.Is(err, w.err) {
		t.Fatalf("WriteJSON = %v, want the writer's error", err)
	}
	if w.writes != 2 {
		t.Errorf("writer saw %d writes, want 2 (none after the failed one)", w.writes)
	}
}

// TestWriteJSONAllocationsDoNotGrowWithEvents: the export allocates its
// two sorted copies, its buffer and the row map — not per event.
func TestWriteJSONAllocationsDoNotGrowWithEvents(t *testing.T) {
	allocs := func(n int) float64 {
		tr := New(func() time.Duration { return 0 })
		for i := 0; i < n; i++ {
			tr.Record(i%8, Track(i%5), "flush", "flush 12 gpu→host", time.Duration(i)*time.Microsecond, time.Microsecond)
			tr.Counter(0, "node0.gpu3.cache.gpu.score_p_mean", time.Duration(i)*time.Millisecond, float64(i)/3)
		}
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
