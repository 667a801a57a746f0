package cachebuf

// FuzzEvictionPolicy: the differential lockstep driven by an arbitrary
// byte-encoded event stream instead of a seeded generator, replayed
// against every registered policy and its reference model, through both
// feeds. One byte is
// one event: the high nibble selects the operation, the low nibble the
// checkpoint id.

import (
	"testing"
	"time"

	"score/internal/simclock"
)

func FuzzEvictionPolicy(f *testing.F) {
	f.Add([]byte{0x00, 0xa1, 0x02})
	f.Add([]byte{
		0x00, 0x01, 0x02, 0x03, // reserve 4 ids
		0xa0, 0xa1, // mark two evictable
		0x04, 0x05, // reserve more, forcing eviction
		0x80, 0xc1, 0xe2, 0x06,
	})
	f.Add(func() []byte {
		var seed []byte
		for i := 0; i < 150; i++ {
			seed = append(seed, byte(i*53))
		}
		return seed
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pol := range Policies() {
			for _, kind := range oracleKinds {
				pol, kind := pol, kind
				clk := simclock.NewVirtual()
				clk.Run(func() {
					ls := newLockstep(t, clk, pol, 1024, 16, kind.build)
					for i, op := range data {
						if t.Failed() {
							return
						}
						id := ID(op & 0x0F)
						switch op >> 4 {
						case 0, 1, 2, 3, 4, 5: // reserve, size from stream position
							ls.reserve(id, int64(1+(i*131)%300))
						case 6, 7: // release
							ls.release(id)
						case 8, 9: // touch
							ls.touch(id)
						case 0xa: // mark evictable now
							ls.o.pinned[id] = false
							ls.o.evictable[id] = true
							ls.o.timeTo[id] = 0
						case 0xb: // evictable in a whole number of seconds
							ls.o.pinned[id] = false
							ls.o.evictable[id] = false
							ls.o.timeTo[id] = time.Duration(1+int(id)%4) * time.Second
						case 0xc: // pin
							ls.o.pinned[id] = true
						case 0xd: // prefetch-order hint
							ls.o.distance[id] = int(op)
						default: // lookup (hit/miss compare)
							ls.lookup(id)
						}
					}
				})
			}
		}
	})
}
