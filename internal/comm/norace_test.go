//go:build !race

package comm

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
