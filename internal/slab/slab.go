// Package slab holds per-version containers that allocate per block, not
// per element: records cut from blocks, and a FIFO that keeps reusing its
// block.
package slab

import "slices"

// Block is the first capacity of every per-version container of the
// simulator, and a slab's largest block. A rank holds a few dozen
// versions: one block holds them, where growing from one element costs
// six allocations.
const Block = 32

// Make returns an empty slice with room for Block elements and the rest
// of their size class (slices.Grow): the capacity append reaches at Block
// from one element, so it regrows through the same capacities after that.
func Make[T any]() []T { return slices.Grow([]T(nil), Block) }

// The first block holds about firstBlock records; each block after it
// about twice as many as the one before, up to Block. A block's exact
// room is what slices.Grow gives for that many: the rest of the size
// class the allocator rounds the block up to.
const firstBlock = 8

// Slab cuts zeroed records of type T from blocks. The zero Slab is ready
// for use. A slot is never reused, so a record's pointer identifies it
// for good. A full block stays alive exactly as long as some record in it
// is still referenced; the slab itself keeps only the current block.
type Slab[T any] struct {
	block []T // the current block; len is how many of its records are cut
	want  int // how many records the next block asks for
}

// New returns a pointer to a fresh zero record.
func (s *Slab[T]) New() *T {
	if len(s.block) == cap(s.block) {
		s.want = min(max(2*s.want, firstBlock), Block)
		s.block = slices.Grow([]T(nil), s.want)
	}
	s.block = s.block[:len(s.block)+1]
	return &s.block[len(s.block)-1]
}
