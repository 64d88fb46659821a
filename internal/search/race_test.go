//go:build race

package search

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is Put, so allocation budgets over pooled state do not hold.
const raceEnabled = true
