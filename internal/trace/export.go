package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// The Chrome export is streamed: every event is appended to one reused
// buffer that is flushed to the writer as it fills, so an export costs
// the bytes it writes — no per-event value, no reflection, no
// whole-document buffer. The bytes are exactly what encoding/json's
// Encoder writes for {"traceEvents": [...]} over events with the fields
// name, cat, ph, ts, dur, pid, tid, id, bp, args in that order (ts and
// dur in microseconds; cat, dur, id, bp and args omitted when empty),
// down to the HTML-safe string escapes, the ES6 number format and the
// trailing newline. export_test.go keeps that reflective encoder as the
// reference and compares the two.

const (
	exportBufLen = 64 << 10
	// exportFlushAt leaves room for one more event of ordinary size, so
	// the buffer outgrows exportBufLen only for a name longer than this.
	exportFlushAt = exportBufLen - 4<<10
)

// chromeStream carries the export buffer between events.
type chromeStream struct {
	w      io.Writer
	buf    []byte
	events int   // written so far; all but the first follow a comma
	err    error // the first write error; nothing is written after it
}

// begin opens one event with its leading fields: the separating comma,
// name (written from quoted, its JSON string, when that is not nil), cat
// (omitted when empty), ph and ts.
func (s *chromeStream) begin(name string, quoted []byte, cat string, ph byte, ts time.Duration) {
	if len(s.buf) >= exportFlushAt {
		s.flush()
	}
	b := s.buf
	if s.events > 0 {
		b = append(b, ',')
	}
	s.events++
	if b = append(b, `{"name":`...); quoted != nil {
		b = append(b, quoted...)
	} else {
		b = appendJSONString(b, name)
	}
	if cat != "" {
		b = appendJSONString(append(b, `,"cat":`...), cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = append(b, `","ts":`...)
	s.buf = appendMicros(b, ts)
}

// row appends the process and thread row every event carries.
func (s *chromeStream) row(pid, tid int) {
	b := strconv.AppendInt(append(s.buf, `,"pid":`...), int64(pid), 10)
	s.buf = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
}

func (s *chromeStream) flush() {
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// WriteJSON exports the timeline as a Chrome trace-event array, loadable
// in chrome://tracing or ui.perfetto.dev. Counter events render as area
// tracks above each GPU's span rows. A NaN or infinite counter value is
// an error and nothing is written; a failed write ends the export with
// that error. Spans and counter samples are written from where they are
// stored, so w must not call back into the tracer or its counter source.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		t = &Tracer{} // an empty timeline
	}
	var err error
	counters := func(fn func(id int, name string, at time.Duration, v float64)) {
		if t.counters != nil {
			t.counters.EachCounter(fn)
		}
	}
	counters(func(_ int, _ string, _ time.Duration, v float64) {
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
	})
	if err != nil {
		return err
	}
	order := t.order()
	event := func(i int) *Event { return t.events.at(int(order[i])) }
	s := &chromeStream{w: w, buf: make([]byte, 0, exportBufLen)}
	s.buf = append(s.buf, `{"traceEvents":[`...)
	// Metadata: name each GPU (process) and task (thread) row.
	seen := map[[2]int]bool{}
	for i := range order {
		e := event(i)
		key := [2]int{e.GPU, int(e.Track)}
		if seen[key] {
			continue
		}
		seen[key] = true
		s.begin("process_name", nil, "", 'M', 0)
		s.row(e.GPU, int(e.Track))
		s.buf = strconv.AppendInt(append(s.buf, `,"args":{"name":"GPU `...), int64(e.GPU), 10)
		s.buf = append(s.buf, `"}}`...)
		s.begin("thread_name", nil, "", 'M', 0)
		s.row(e.GPU, int(e.Track))
		s.buf = appendJSONString(append(s.buf, `,"args":{"name":`...), e.Track.String())
		s.buf = append(s.buf, `}}`...)
	}
	for i := range order {
		if s.err != nil {
			return s.err
		}
		e := event(i)
		s.begin(e.Name, nil, e.Category, 'X', e.Start)
		if e.Duration != 0 {
			s.buf = appendMicros(append(s.buf, `,"dur":`...), e.Duration)
		}
		s.row(e.GPU, int(e.Track))
		if e.Flow != 0 {
			s.buf = strconv.AppendInt(append(s.buf, `,"args":{"flow":`...), e.Flow, 10)
			s.buf = append(s.buf, '}')
		}
		s.buf = append(s.buf, '}')
	}
	s.flows(len(order), event)
	var quoted [][]byte // each counter name's JSON string, by id
	counters(func(id int, name string, at time.Duration, v float64) {
		if s.err != nil {
			return
		}
		if id >= len(quoted) {
			quoted = slices.Grow(quoted, id+1-len(quoted))[:id+1]
		}
		if quoted[id] == nil {
			quoted[id] = appendJSONString(nil, name)
		}
		s.begin("", quoted[id], "", 'C', at)
		s.row(0, 0)
		s.buf = appendJSONFloat(append(s.buf, `,"args":{"value":`...), v)
		s.buf = append(s.buf, `}}`...)
	})
	s.buf = append(s.buf, "]}\n"...)
	s.flush()
	return s.err
}

// flows turns each flow-linked span chain into Chrome flow-arrow events:
// "s" opens the chain at the first span, "t" steps through the middle,
// "f" (binding point "e", the enclosing slice) terminates it. Perfetto
// renders these as arrows joining one checkpoint version's spans across
// tracks and GPUs. Chains are runs of an index over the n sorted spans,
// event(i) the i-th, ordered by flow ID and then by position, so the
// emission is as byte-deterministic as the span order itself.
func (s *chromeStream) flows(n int, event func(i int) *Event) {
	var linked []int32
	for i := range n {
		if event(i).Flow != 0 {
			linked = append(linked, int32(i))
		}
	}
	slices.SortFunc(linked, func(a, b int32) int {
		return cmp.Or(cmp.Compare(event(int(a)).Flow, event(int(b)).Flow), cmp.Compare(a, b))
	})
	for len(linked) > 0 && s.err == nil {
		first := event(int(linked[0]))
		n := 1
		for n < len(linked) && event(int(linked[n])).Flow == first.Flow {
			n++
		}
		chain := linked[:n]
		linked = linked[n:]
		if n < 2 {
			continue // an arrow needs two endpoints
		}
		// All events in one chain must share name, cat, and id for the
		// viewer to join them; the chain borrows its first span's name.
		for i, at := range chain {
			e := event(int(at))
			ph, bp := byte('t'), ""
			switch i {
			case 0:
				ph = 's'
			case n - 1:
				ph, bp = 'f', `,"bp":"e"`
			}
			s.begin(first.Name, nil, "flow", ph, e.Start)
			s.row(e.GPU, int(e.Track))
			s.buf = strconv.AppendInt(append(s.buf, `,"id":"`...), first.Flow, 10)
			s.buf = append(append(append(s.buf, '"'), bp...), '}')
		}
	}
}

// appendMicros appends d in microseconds, the unit of "ts" and "dur", as
// appendJSONFloat(b, float64(d)/1e3) would: from 0 to below 10^15 ns (at
// most 15 significant digits, so the quotient prints exactly) as integer
// microseconds and up to three trimmed fractional digits, else by that.
func appendMicros(b []byte, d time.Duration) []byte {
	if d < 0 || d >= 1e15 {
		return appendJSONFloat(b, float64(d)/float64(time.Microsecond))
	}
	b = strconv.AppendInt(b, int64(d/time.Microsecond), 10)
	if frac := d % time.Microsecond; frac != 0 {
		b = strconv.AppendInt(b, int64(time.Microsecond+frac), 10) // "1" and three digits
		b[len(b)-4] = '.'
		b = bytes.TrimRight(b, "0")
	}
	return b
}

// appendJSONFloat appends a finite f the way encoding/json does: like
// ES6 number-to-string, %f unless the exponent is below -6 or at least
// 21, and then %e with the exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 to e-9
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends src quoted the way encoding/json does with
// HTML escaping on: ", \ and the control bytes escaped (short forms for
// \b \f \n \r \t), <, > and & as \u00XX, U+2028 and U+2029 as \u202X,
// and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, src string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(src); {
		c := src[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(src[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, src[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, src[start:i]...), `\u202`...)
				b = append(b, hexDigits[r&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(append(b, src[start:i]...), '\\')
		switch c {
		case '\\', '"':
			b = append(b, c)
		case '\b':
			b = append(b, 'b')
		case '\f':
			b = append(b, 'f')
		case '\n':
			b = append(b, 'n')
		case '\r':
			b = append(b, 'r')
		case '\t':
			b = append(b, 't')
		default:
			b = append(b, 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	return append(append(b, src[start:]...), '"')
}
