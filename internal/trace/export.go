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
	quotes quoteCache
}

// next starts one event with the separating comma.
func (s *chromeStream) next() {
	if len(s.buf) >= exportFlushAt {
		s.flush()
	}
	if s.events > 0 {
		s.buf = append(s.buf, ',')
	}
	s.events++
}

// begin opens one event with its leading fields after the separating
// comma: name (quoted, its JSON string), cat (omitted when empty), ph and
// ts.
func (s *chromeStream) begin(quoted []byte, cat string, ph byte, ts time.Duration) {
	s.next()
	b := append(append(s.buf, `{"name":`...), quoted...)
	if cat != "" {
		b = append(append(append(b, `,"cat":"`...), s.quotes.escaped(cat)...), '"')
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = append(b, `","ts":`...)
	s.buf = appendMicros(b, ts)
}

// appendName appends sp's name as a JSON string: its static name escaped
// once per export, the version's digits, which need no escape, spliced
// in after the first word. Escaping splits at that space, an ASCII byte,
// so the escape of the whole is the escapes of the parts, and the first
// space of the escape is the name's own: escapes write no space.
func (s *chromeStream) appendName(b []byte, sp *span) []byte {
	esc := s.quotes.escaped(sp.name)
	if b = append(b, '"'); sp.versioned {
		b = appendVersioned(b, esc, sp.version)
	} else {
		b = append(b, esc...)
	}
	return append(b, '"')
}

// quoteCache holds the JSON escapes of the strings an export wrote last,
// so a span name or category, a handful of constants in practice, is
// escaped once per export. A string's slot is chosen by its length and
// end bytes; a constant found there compares equal by pointer at once.
type quoteCache struct {
	slots [64]struct {
		s   string
		esc []byte // s escaped, without the quotes
	}
}

// escaped returns s escaped, valid until the next call.
func (q *quoteCache) escaped(s string) []byte {
	if s == "" {
		return nil
	}
	slot := &q.slots[(len(s)*31+int(s[0])*7+int(s[len(s)-1]))%len(q.slots)]
	if slot.s != s {
		slot.s, slot.esc = s, appendJSONEscaped(slices.Grow(slot.esc[:0], len(s)), s)
	}
	return slot.esc
}

// row appends the process and thread row every event carries.
func (s *chromeStream) row(pid int32, tid Track) {
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
	event := func(i int) *span { return t.events.at(int(order[i])) }
	s := &chromeStream{w: w, buf: make([]byte, 0, exportBufLen)}
	s.buf = append(s.buf, `{"traceEvents":[`...)
	// Metadata: name each GPU (process) and task (thread) row.
	seen := map[[2]int32]bool{}
	for i := range order {
		e := event(i)
		key := [2]int32{e.gpu, int32(e.track)}
		if seen[key] {
			continue
		}
		seen[key] = true
		s.begin([]byte(`"process_name"`), "", 'M', 0)
		s.row(e.gpu, e.track)
		s.buf = strconv.AppendInt(append(s.buf, `,"args":{"name":"GPU `...), int64(e.gpu), 10)
		s.buf = append(s.buf, `"}}`...)
		s.begin([]byte(`"thread_name"`), "", 'M', 0)
		s.row(e.gpu, e.track)
		s.buf = appendJSONString(append(s.buf, `,"args":{"name":`...), e.track.String())
		s.buf = append(s.buf, `}}`...)
	}
	linked := 0                   // spans in a flow chain
	quoted := make([]byte, 0, 64) // a span's name as a JSON string
	for i := range order {
		if s.err != nil {
			return s.err
		}
		e := event(i)
		if e.flow != 0 {
			linked++
		}
		quoted = s.appendName(quoted[:0], e)
		s.begin(quoted, e.category, 'X', e.start)
		if e.duration != 0 {
			s.buf = appendMicros(append(s.buf, `,"dur":`...), e.duration)
		}
		s.row(e.gpu, e.track)
		if e.flow != 0 {
			s.buf = strconv.AppendInt(append(s.buf, `,"args":{"flow":`...), e.flow, 10)
			s.buf = append(s.buf, '}')
		}
		s.buf = append(s.buf, '}')
	}
	s.flows(len(order), linked, event)
	var heads [][]byte // each counter's event up to its ts value, by id
	counters(func(id int, name string, at time.Duration, v float64) {
		if s.err != nil {
			return
		}
		if id >= len(heads) {
			heads = slices.Grow(heads, id+1-len(heads))[:id+1]
		}
		if heads[id] == nil {
			head := append(make([]byte, 0, len(name)+32), `{"name":`...)
			heads[id] = append(appendJSONString(head, name), `,"ph":"C","ts":`...)
		}
		s.next()
		b := appendMicros(append(s.buf, heads[id]...), at)
		b = appendJSONFloat(append(b, `,"pid":0,"tid":0,"args":{"value":`...), v)
		s.buf = append(b, `}}`...)
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
// event(i) the i-th and linkedN of them in a chain, ordered by flow ID
// and then by position, so the emission is as byte-deterministic as the
// span order itself.
func (s *chromeStream) flows(n, linkedN int, event func(i int) *span) {
	type link struct {
		flow int64
		at   int32 // the span's index in the sorted order
	}
	linked := make([]link, 0, linkedN)
	name := make([]byte, 0, 64) // the chain's name as a JSON string
	for i := range n {
		if f := event(i).flow; f != 0 {
			linked = append(linked, link{f, int32(i)})
		}
	}
	slices.SortFunc(linked, func(a, b link) int {
		return cmp.Or(cmp.Compare(a.flow, b.flow), cmp.Compare(a.at, b.at))
	})
	for len(linked) > 0 && s.err == nil {
		n := 1
		for n < len(linked) && linked[n].flow == linked[0].flow {
			n++
		}
		chain := linked[:n]
		linked = linked[n:]
		if n < 2 {
			continue // an arrow needs two endpoints
		}
		first := event(int(chain[0].at))
		// All events in one chain must share name, cat, and id for the
		// viewer to join them; the chain borrows its first span's name.
		name = s.appendName(name[:0], first)
		for i, l := range chain {
			e := event(int(l.at))
			ph, bp := byte('t'), ""
			switch i {
			case 0:
				ph = 's'
			case n - 1:
				ph, bp = 'f', `,"bp":"e"`
			}
			s.begin(name, "flow", ph, e.start)
			s.row(e.gpu, e.track)
			s.buf = strconv.AppendInt(append(s.buf, `,"id":"`...), first.flow, 10)
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
// 21, and then %e with the exponent unpadded. An integral f below 10^15
// in magnitude, -0 aside, is an integer whose shortest round-trip digits
// are its own, so strconv.AppendInt prints the same bytes, faster; most
// sampled gauges (bytes, counts, depths) are such values.
func appendJSONFloat(b []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10)
	}
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
	return append(appendJSONEscaped(append(b, '"'), src), '"')
}

// appendJSONEscaped is appendJSONString without the quotes.
func appendJSONEscaped(b []byte, src string) []byte {
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
	return append(b, src[start:]...)
}
