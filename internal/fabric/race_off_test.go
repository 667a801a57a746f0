//go:build !race

package fabric

// raceEnabled: see race_on_test.go.
const raceEnabled = false
