//go:build race

package verify_test

// raceEnabled reports whether the race detector is on; under it sync.Pool
// drops a quarter of what it is given, fmt's printer pool included.
const raceEnabled = true
