//go:build race

package trainer

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
