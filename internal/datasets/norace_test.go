//go:build !race

package datasets

const raceEnabled = false
