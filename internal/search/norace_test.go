//go:build !race

package search

const raceEnabled = false
