//go:build race

package game

// raceEnabled reports a race-detector build, in which sync.Pool drops
// items at random, so a pooled object can cost an allocation.
const raceEnabled = true
