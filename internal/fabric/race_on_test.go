//go:build race

package fabric

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a share of what is put back, so a
// pooled record is sometimes made afresh.
const raceEnabled = true
