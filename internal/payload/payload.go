// Package payload models checkpoint contents. Benchmarks use virtual
// payloads (size only — the simulated fabric accounts for the time that
// moving the bytes would take), while integration tests and the
// rank-failure scenario use real byte payloads whose integrity is verified on restore with an
// FNV-1a checksum.
package payload

import (
	"fmt"
	"hash/fnv"
)

// Payload is the content of one checkpoint. Payloads are immutable once
// written (paper §1, "Limitations of the Proposed Approach").
type Payload interface {
	// Size returns the payload size in bytes.
	Size() int64
	// Checksum returns a content checksum; virtual payloads return a
	// deterministic function of their size.
	Checksum() uint64
	// Bytes returns the underlying data, or nil for virtual payloads.
	Bytes() []byte
}

// Virtual is a size-only payload used in large-scale benchmarks where
// materializing tens of gigabytes is neither possible nor useful.
type Virtual struct{ N int64 }

// NewVirtual returns a virtual payload of n bytes (n must be >= 0).
func NewVirtual(n int64) Virtual {
	if n < 0 {
		panic(fmt.Sprintf("payload: negative size %d", n))
	}
	return Virtual{N: n}
}

// Size implements Payload.
func (v Virtual) Size() int64 { return v.N }

// Checksum implements Payload with a deterministic size-derived value.
func (v Virtual) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	n := uint64(v.N)
	for i := 0; i < 8; i++ {
		buf[i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// Bytes implements Payload; virtual payloads carry no data.
func (v Virtual) Bytes() []byte { return nil }

// Real is a byte-backed payload.
type Real struct {
	data []byte
	sum  uint64
}

// NewReal wraps data (not copied) and precomputes its checksum.
func NewReal(data []byte) *Real {
	h := fnv.New64a()
	h.Write(data)
	return &Real{data: data, sum: h.Sum64()}
}

// Size implements Payload.
func (r *Real) Size() int64 { return int64(len(r.data)) }

// Checksum implements Payload.
func (r *Real) Checksum() uint64 { return r.sum }

// Bytes implements Payload. Callers must not mutate the returned slice.
func (r *Real) Bytes() []byte { return r.data }

// Verify recomputes the checksum of got and compares it with want's,
// returning a descriptive error on mismatch. It is used by restores of
// real payloads.
func Verify(want Payload, got []byte) error {
	h := fnv.New64a()
	h.Write(got)
	if sum := h.Sum64(); sum != want.Checksum() {
		return fmt.Errorf("payload: checksum mismatch: got %#x, want %#x", sum, want.Checksum())
	}
	return nil
}
