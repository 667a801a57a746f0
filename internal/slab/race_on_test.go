//go:build race

package slab

// raceEnabled reports that this test binary was built with the race
// detector, whose shadow-memory allocations make allocation counts
// meaningless.
const raceEnabled = true
