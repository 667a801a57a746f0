package slab

import "testing"

// FuzzQueue drives the compacting FIFO with an arbitrary push/pop
// sequence and checks every observable against a naive reference queue
// (a plain slice that re-slices on pop). The two must agree exactly: the
// compaction step is an allocation optimization, never a semantic one.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0x00, 0xFF})
	f.Add(func() []byte {
		// Push/pop churn long enough to compact many times and to grow
		// past the first block.
		var seed []byte
		for i := 0; i < 300; i++ {
			seed = append(seed, byte(i%2)*0x80|byte(i))
		}
		for i := 0; i < 3*Block; i++ {
			seed = append(seed, byte(i)&0x7F)
		}
		return seed
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue[int64]
		var ref []int64 // naive model: append to push, re-slice to pop
		next := int64(0)

		for _, op := range data {
			if op&0x80 == 0 {
				// Push. Derive the value from a counter plus low op bits
				// so duplicates also occur.
				v := next + int64(op&0x0F)
				next++
				q.Push(v)
				ref = append(ref, v)
			} else {
				v, ok := q.Pop()
				wantOK := len(ref) > 0
				if ok != wantOK {
					t.Fatalf("pop ok=%v, reference says %v", ok, wantOK)
				}
				if ok {
					if want := ref[0]; v != want {
						t.Fatalf("pop = %d, reference head = %d", v, want)
					}
					ref = ref[1:]
				}
			}
			if got, want := q.Len(), len(ref); got != want {
				t.Fatalf("len = %d, reference len = %d", got, want)
			}
		}

		// Drain: the remaining values must come out in reference order.
		for len(ref) > 0 {
			v, ok := q.Pop()
			if !ok {
				t.Fatalf("queue empty with %d values still in the reference", len(ref))
			}
			if v != ref[0] {
				t.Fatalf("drain pop = %d, reference head = %d", v, ref[0])
			}
			ref = ref[1:]
		}
		if v, ok := q.Pop(); ok {
			t.Fatalf("pop after drain returned %d", v)
		}
	})
}

// TestQueueKeepsNothingPopped checks that no slot of the backing array
// still points at a popped value, compacted or not.
func TestQueueKeepsNothingPopped(t *testing.T) {
	var q Queue[*rec]
	for i := 0; i < 5; i++ {
		q.Push(&rec{id: int64(i)})
	}
	for i := 0; i < 2; i++ { // 2 of 5 popped: no compaction yet
		q.Pop()
	}
	for i := 0; i < 3; i++ { // the third pop compacts
		q.Pop()
	}
	for i, r := range q.items[:cap(q.items)] {
		if r != nil {
			t.Errorf("slot %d still holds record %d after every record was popped", i, r.id)
		}
	}
}

var sinkQ Queue[int64]

// TestQueueAllocatesOneBlock checks that a queue that never holds more
// than Block pending values allocates once, however many pass through.
func TestQueueAllocatesOneBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	allocs := testing.AllocsPerRun(20, func() {
		sinkQ = Queue[int64]{}
		for i := 0; i < 10*Block; i++ {
			sinkQ.Push(int64(i))
			if i%Block == Block-1 {
				for sinkQ.Len() > 0 {
					sinkQ.Pop()
				}
			}
		}
	})
	if allocs != 1 {
		t.Errorf("%d values through a queue of at most %d pending allocate %v times, want 1", 10*Block, Block, allocs)
	}
}
