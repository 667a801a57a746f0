// Package slab hands out fixed records cut from blocks, so a simulator
// that keeps one record per checkpoint version pays one allocation per
// block rather than one per record.
package slab

import "slices"

// The first block holds about firstBlock records; each block after it
// about twice as many as the one before, up to lastBlock. A block's exact
// room is what slices.Grow gives for that many: the rest of the size
// class the allocator rounds the block up to.
const (
	firstBlock = 8
	lastBlock  = 32
)

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
		s.want = min(max(2*s.want, firstBlock), lastBlock)
		s.block = slices.Grow([]T(nil), s.want)
	}
	s.block = s.block[:len(s.block)+1]
	return &s.block[len(s.block)-1]
}
