package solve_test

import (
	"testing"

	"repro/internal/bottom"
	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/solve"
)

// TestProverMatchesOracle asks the property of oracle_test.go of the
// exact-mode tests' hand-built programs and of real rules on
// the three paper datasets: bottom-clause prefixes of seeds, each with some
// of its children as one pack, and the target theory. They are the rules the
// search tests take the prover's word for (they compare against
// search.ProveAlone, which is CoversQuery): the start of the frontier
// TestGroundCallMemoOnFrontier runs, seeds of the covering run
// TestCoverageMemoOnPyrimidinesCovering makes, and the rules
// TestCandidateFilterOnTrueConcept proves on every carcinogenesis example.
// Each is asked on every example at the dataset's budget, and on a sample
// under TestPackedFrontierBudgets' grid of budgets. Every fast path must have
// been taken.
func TestProverMatchesOracle(t *testing.T) {
	t.Parallel()
	use := solve.HandBuiltProverMatchesOracle(t)
	var grid []solve.Budget
	for _, maxInf := range []int64{3, 5, 8, 13, 21, 40, 80, 200, 0} {
		for _, maxDepth := range []int{1, 2, 64} {
			grid = append(grid, solve.Budget{MaxInferences: maxInf, MaxDepth: maxDepth})
		}
	}
	trains := datasets.Trains()
	for _, c := range []struct {
		ds    *datasets.Dataset
		seeds []int // positives saturated into bottom clauses
	}{
		{datasets.PyrimidinesSized(212, 191, 1), []int{0}},
		{datasets.PyrimidinesSized(67, 60, 1), []int{3, 20, 41}},
		{datasets.Carcinogenesis(1), []int{0}},
		{trains, []int{0, 2}},
	} {
		ds := c.ds
		groups := []solve.OracleGroup{{}}
		for i := range ds.TrueConcept {
			groups[0].Rules = append(groups[0].Rules, &ds.TrueConcept[i])
		}
		for _, s := range c.seeds {
			groups = append(groups, prefixGroups(t, ds, ds.Pos[s], 3, 6)...)
		}
		examples := append(append([]logic.Term(nil), ds.Pos...), ds.Neg...)
		var sample []logic.Term
		for i := 0; i < len(examples); i += 1 + len(examples)/8 {
			sample = append(sample, examples[i])
		}
		use.Add(solve.ProverMatchesOracle(t, ds.Name, ds.KB, withExamples(groups, examples), ds.Budget))
		use.Add(solve.ProverMatchesOracle(t, ds.Name+" sampled", ds.KB, withExamples(groups, sample), grid...))
	}
	if use.Replayed == 0 || use.Filtered == 0 || use.Alone == 0 || use.Packed == 0 || use.Skipped == 0 {
		t.Errorf("a fast path was never taken: %+v", use)
	}
}

// prefixGroups saturates seed and returns, for k = 1 … depth, the rule of its
// bottom clause's first k literals with up to width children that append one
// later literal: a search node and the start of its frontier, as one group
// sharing the node's k literals.
func prefixGroups(t *testing.T, ds *datasets.Dataset, seed logic.Term, depth, width int) []solve.OracleGroup {
	t.Helper()
	bot, err := bottom.Construct(solve.NewMachine(ds.KB, ds.Budget), ds.Modes, seed, ds.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	var groups []solve.OracleGroup
	for k := 1; k <= depth && k < len(bot.Lits); k++ {
		node := make([]int32, k)
		for i := range node {
			node[i] = int32(i)
		}
		g := solve.OracleGroup{Prefix: k}
		for j := k - 1; j < len(bot.Lits) && j <= k+width; j++ {
			ix := node // the node itself, then its children
			if j >= k {
				ix = append(node[:k:k], int32(j))
			}
			rule := bot.Materialize(ix)
			g.Rules = append(g.Rules, &rule)
		}
		groups = append(groups, g)
	}
	return groups
}

// withExamples is groups, every one asked on examples.
func withExamples(groups []solve.OracleGroup, examples []logic.Term) []solve.OracleGroup {
	out := make([]solve.OracleGroup, len(groups))
	for i, g := range groups {
		g.Examples = examples
		out[i] = g
	}
	return out
}
