//go:build !race

package slab

// raceEnabled: see race_on_test.go.
const raceEnabled = false
