//go:build !race

package platform

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
