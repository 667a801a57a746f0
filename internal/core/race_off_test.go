//go:build !race

package core

// raceEnabled: see race_on_test.go.
const raceEnabled = false
