package main

import "testing"

// TestCheckFlagsRefusesUnreadFlags: a flag the selected generator never
// reads, and an example count below 1, are refused by name before anything
// is generated, instead of writing an empty dataset or one the header
// mislabels; every flag a generator does read passes.
func TestCheckFlagsRefusesUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		set     []string // flag.Visit order: sorted
		dataset string
		n       int
		skew    float64
		err     string // "" = accepted
	}{
		{dataset: "trains", n: 200},
		{set: []string{"dataset", "scale", "seed"}, dataset: "pyrimidines", n: 200},
		{set: []string{"dataset", "n", "seed"}, dataset: "trains-gen", n: 50},
		{set: []string{"dataset", "n", "skew"}, dataset: "trains-skew", n: 50, skew: 0.5},
		{set: []string{"dataset", "skew"}, dataset: "trains", n: 200, skew: 0.5},
		{set: []string{"skew"}, dataset: "trains", n: 200},
		{set: []string{"dataset", "n"}, dataset: "trains-gen", n: -1, err: "-n -1: a generated dataset needs at least 1 example"},
		{set: []string{"dataset", "n"}, dataset: "trains-gen", n: 0, err: "-n 0: a generated dataset needs at least 1 example"},
		{set: []string{"dataset", "n"}, dataset: "trains-skew", n: 0, err: "-n 0: a generated dataset needs at least 1 example"},
		{set: []string{"dataset", "scale", "skew"}, dataset: "mesh", n: 200, skew: 0.5, err: "-skew: not read by the mesh generator"},
		{set: []string{"dataset", "scale", "skew"}, dataset: "trains", n: 200, skew: 0.5, err: "-scale: not read by the trains-skew generator"},
		{set: []string{"dataset", "scale"}, dataset: "trains-gen", n: 200, err: "-scale: not read by the trains-gen generator"},
		{set: []string{"dataset", "n"}, dataset: "carcinogenesis", n: 10, err: "-n: not read by the carcinogenesis generator"},
		{set: []string{"n"}, dataset: "trains", n: 10, err: "-n: not read by the trains generator"},
		{set: []string{"dataset", "n", "scale", "skew"}, dataset: "trains-gen", n: 10, skew: 0.5,
			err: "-scale, -skew: not read by the trains-gen generator"},
		{set: []string{"skew"}, dataset: "trains", n: 200, skew: 1.5, err: "-skew must be in [0, 1]"},
	} {
		err := checkFlags(tc.set, tc.dataset, generator(tc.dataset, tc.skew), tc.n, tc.skew)
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || err.Error() != tc.err) {
			t.Errorf("checkFlags(%v, -dataset %s, -n %d, -skew %v) = %v, want %q", tc.set, tc.dataset, tc.n, tc.skew, err, tc.err)
		}
	}
}
