//go:build race

package simclock

// raceEnabled reports that this test binary was built with the race
// detector, which slows the livelock test's 2^24 same-instant resumptions
// about fifteenfold.
const raceEnabled = true
