package solve_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/solve"
)

// TestDifferentialSwitchesMatchSeedIndex holds the compiled switches to the
// seed engine's own argument indexes, list by list, on a program of the
// index's corner cases, on random programs and on the three paper KBs: every
// list a constant can select must hold the seed index's candidates, each
// passing over the argument its bucket proved equal, in the seed index's
// order. The prover oracle sees only what the lists charge; this test sees
// the lists.
func TestDifferentialSwitchesMatchSeedIndex(t *testing.T) {
	t.Parallel()
	kbs := map[string]*solve.KB{}
	for _, ds := range []*datasets.Dataset{datasets.Carcinogenesis(1), datasets.Mesh(1), datasets.Pyrimidines(1)} {
		kbs[ds.Name] = ds.KB
	}
	solve.SwitchesMatchSeedIndex(t, kbs)
}
