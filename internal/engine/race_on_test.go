//go:build race

package engine_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
