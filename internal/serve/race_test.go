//go:build race

package serve

// raceEnabled reports a race-detector build.
const raceEnabled = true
