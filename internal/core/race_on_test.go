//go:build race

package core

// raceEnabled reports that this test binary was built with the race
// detector, whose shadow-memory allocations make allocation budgets
// meaningless.
const raceEnabled = true
