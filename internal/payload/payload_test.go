package payload

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestVirtualPayload(t *testing.T) {
	v := NewVirtual(1 << 20)
	if v.Size() != 1<<20 {
		t.Errorf("size = %d, want 1MiB", v.Size())
	}
	if v.Bytes() != nil {
		t.Error("virtual payload must carry no bytes")
	}
	if NewVirtual(1<<20).Checksum() != v.Checksum() {
		t.Error("equal-size virtual payloads must have equal checksums")
	}
	if NewVirtual(1<<21).Checksum() == v.Checksum() {
		t.Error("different-size virtual payloads should differ in checksum")
	}
}

func TestNewVirtualRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewVirtual(-1) did not panic")
		}
	}()
	NewVirtual(-1)
}

func TestRealPayloadRoundTrip(t *testing.T) {
	data := []byte("seismic wavefield snapshot 042")
	r := NewReal(data)
	if r.Size() != int64(len(data)) {
		t.Errorf("size = %d, want %d", r.Size(), len(data))
	}
	if !bytes.Equal(r.Bytes(), data) {
		t.Error("bytes mismatch")
	}
	if err := Verify(r, data); err != nil {
		t.Errorf("Verify of identical data failed: %v", err)
	}
	corrupted := append([]byte{}, data...)
	corrupted[0] ^= 0xFF
	if err := Verify(r, corrupted); err == nil {
		t.Error("Verify of corrupted data should fail")
	}
}

func TestChecksumDetectsAnySingleBitFlipProperty(t *testing.T) {
	f := func(data []byte, pos uint16, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		r := NewReal(data)
		flipped := append([]byte{}, data...)
		flipped[int(pos)%len(flipped)] ^= 1 << (bit % 8)
		return Verify(r, flipped) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// writer stands for a runtime's Checkpoint method called through an
// interface, as the shot runner calls every runtime's.
type writer interface {
	Checkpoint(id int64, p Payload) error
}

type sizeTotal struct{ bytes int64 }

func (s *sizeTotal) Checkpoint(_ int64, p Payload) error {
	s.bytes += p.Size()
	return nil
}

var (
	runtimeUnderTest writer = &sizeTotal{}
	snapshotSize            = int64(96 << 20)
)

func TestVirtualPayloadThroughAnInterfaceAllocatesNothing(t *testing.T) {
	id := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		id++
		if err := runtimeUnderTest.Checkpoint(id, NewVirtual(snapshotSize+id)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a virtual payload passed through an interface call allocates %v times, want 0", allocs)
	}
}
