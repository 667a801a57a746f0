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

// Payload is the content of one checkpoint: a size and, for a payload
// that carries bytes, the Source they come from. It is a small value, so
// a virtual payload passed by value or through an interface call
// allocates nothing. Payloads are immutable once written (paper §1,
// "Limitations of the Proposed Approach"). The zero Payload is a virtual
// payload of 0 bytes.
type Payload struct {
	n   int64
	src Source // nil for a virtual payload
}

// Source supplies the bytes of a byte-backed payload.
type Source interface {
	// Bytes returns the data, or nil if it could not be read.
	Bytes() []byte
	// Checksum returns the data's content checksum.
	Checksum() uint64
}

// NewVirtual returns a size-only payload of n bytes (n must be >= 0),
// for large-scale benchmarks where materializing tens of gigabytes is
// neither possible nor useful.
func NewVirtual(n int64) Payload {
	if n < 0 {
		panic(fmt.Sprintf("payload: negative size %d", n))
	}
	return Payload{n: n}
}

// NewReal wraps data (not copied) and precomputes its checksum.
func NewReal(data []byte) Payload {
	h := fnv.New64a()
	h.Write(data)
	return Payload{n: int64(len(data)), src: &bytesSource{data: data, sum: h.Sum64()}}
}

// FromSource returns an n-byte payload whose bytes src supplies.
func FromSource(n int64, src Source) Payload { return Payload{n: n, src: src} }

// Size returns the payload size in bytes.
func (p Payload) Size() int64 { return p.n }

// Source returns the payload's byte source, or nil for a virtual payload.
func (p Payload) Source() Source { return p.src }

// Checksum returns the source's content checksum; a virtual payload's is
// a deterministic function of its size.
func (p Payload) Checksum() uint64 {
	if p.src != nil {
		return p.src.Checksum()
	}
	h := fnv.New64a()
	var buf [8]byte
	n := uint64(p.n)
	for i := 0; i < 8; i++ {
		buf[i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// Bytes returns the underlying data, or nil for a virtual payload.
// Callers must not mutate the returned slice.
func (p Payload) Bytes() []byte {
	if p.src == nil {
		return nil
	}
	return p.src.Bytes()
}

// bytesSource is an in-memory Source.
type bytesSource struct {
	data []byte
	sum  uint64
}

func (b *bytesSource) Bytes() []byte    { return b.data }
func (b *bytesSource) Checksum() uint64 { return b.sum }

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
