package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof profile.proto encoding that
// runtime/pprof writes, so layer shares need neither `go tool pprof`
// nor a module dependency. Only the fields the aggregator needs are
// decoded: samples (location ids, values), locations (their inlined
// lines), functions (name index) and the string table.

// stackSample is one profile sample: function names leaf first, and the
// sample's last value (CPU nanoseconds in a CPU profile).
type stackSample struct {
	frames []string
	value  int64
}

// protoReader walks one length-delimited protobuf message.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("profile: varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, its varint value (wire type
// 0) or its bytes (wire type 2). Fixed-width fields are skipped over.
func (r *protoReader) next() (field int, v uint64, data []byte, ok bool) {
	for len(r.b) > 0 && r.err == nil {
		key := r.varint()
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			return field, r.varint(), nil, r.err == nil
		case 2:
			n := r.varint()
			if r.err != nil || n > uint64(len(r.b)) {
				r.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, true
		case 1:
			r.skip(8)
		case 5:
			r.skip(4)
		default:
			r.err = fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return 0, 0, nil, false
}

func (r *protoReader) skip(n int) {
	if n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return
	}
	r.b = r.b[n:]
}

// repeated appends a repeated integer field that may arrive packed
// (bytes) or one varint at a time.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// decodeProfile parses a gzip-compressed (or raw) pprof profile.
func decodeProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	top := protoReader{b: data}
	for {
		field, _, msg, ok := top.next()
		if !ok {
			break
		}
		var err error
		switch field {
		case 2: // Sample
			var s rawSample
			r := protoReader{b: msg}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			err = r.err
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			r := protoReader{b: msg}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					lr := protoReader{b: d}
					for {
						lf, lv, _, ok := lr.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
					if lr.err != nil {
						return nil, lr.err
					}
				}
			}
			err = r.err
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			r := protoReader{b: msg}
			for {
				f, v, _, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			err = r.err
			funcNames[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		if err != nil {
			return nil, err
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: string index %d out of range", idx)
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// hostLayers are the repository layers a simulated event or a restore
// passes through, in the order the tables print them.
var hostLayers = []string{"simclock", "fabric", "device", "cachebuf", "lifecycle", "core", "metrics", "trace", "slo"}

// Buckets for samples whose innermost repo frame is not in a layer, or
// that have no repo frame at all.
const (
	bucketHarness = "harness"
	bucketSched   = "goruntime.sched"
	bucketGC      = "goruntime.gc"
	bucketOther   = "other"
)

// frameBucket names the bucket a function belongs to: a layer, the
// harness, "other" for the rest of the repo (the score package itself,
// payload, rtm, …), or "" for the Go runtime and standard library.
func frameBucket(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may carry package paths of their own
	}
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "score/bench"):
		return bucketHarness
	case pkg == "score":
		return bucketOther
	case strings.HasPrefix(pkg, "score/internal/"):
		name := strings.TrimPrefix(pkg, "score/internal/")
		for _, l := range hostLayers {
			if l == name {
				return l
			}
		}
		return bucketOther
	}
	return ""
}

var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

var schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gosched_m",
	"runtime.goexit0", "runtime.mstart1", "runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.mcall"}

func hasFrame(frames, set []string) bool {
	for _, f := range frames {
		for _, s := range set {
			if f == s {
				return true
			}
		}
	}
	return false
}

// layerShares is a CPU profile folded onto the layers. Self is a
// partition: every sample goes to the bucket of its innermost repo
// frame, or, with no repo frame on the stack, to the garbage collector,
// the scheduler or "other"; the self shares sum to 1. Cum counts a
// sample for every layer that has any frame on the stack.
type layerShares struct {
	Self, Cum map[string]float64
	TotalNs   int64
}

func aggregateLayers(samples []stackSample) layerShares {
	sh := layerShares{Self: map[string]float64{}, Cum: map[string]float64{}}
	for _, s := range samples {
		sh.TotalNs += s.value
		self := ""
		seen := map[string]bool{}
		for _, f := range s.frames {
			b := frameBucket(f)
			if b == "" {
				continue
			}
			if self == "" {
				self = b
			}
			if !seen[b] {
				seen[b] = true
				sh.Cum[b] += float64(s.value)
			}
		}
		if self == "" {
			switch {
			case hasFrame(s.frames, gcFrames):
				self = bucketGC
			case hasFrame(s.frames, schedFrames):
				self = bucketSched
			default:
				self = bucketOther
			}
		}
		sh.Self[self] += float64(s.value)
	}
	if sh.TotalNs > 0 {
		for k := range sh.Self {
			sh.Self[k] /= float64(sh.TotalNs)
		}
		for k := range sh.Cum {
			sh.Cum[k] /= float64(sh.TotalNs)
		}
	}
	return sh
}
