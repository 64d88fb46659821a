//go:build race

package datasets

// raceEnabled reports that the race detector is on: generating a dataset
// then allocates about a third more bytes (3.38 MB against 2.53 MB for
// carcinogenesis), so byte budgets measured without it do not hold.
const raceEnabled = true
