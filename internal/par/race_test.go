//go:build race

package par

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
