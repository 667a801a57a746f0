//go:build !race

package simclock

// raceEnabled: see race_on_test.go.
const raceEnabled = false
