//go:build race

package scenario

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of its Puts on purpose, so gates on pooled-buffer reuse only hold
// without it.
const raceEnabled = true
