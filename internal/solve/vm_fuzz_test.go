package solve

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// FuzzVMMatchesInterpreter is the bit-identity contract as a fuzz target:
// on a random program and query stream (the differential test's generators,
// driven by the fuzzed seed), the compiled VM and the tree-walking
// interpreter must produce the same solutions in the same order, charge the
// same inference counts and hit the same budget cutoffs; and on a random
// rule × example stream, held interpreter-form and compiled queries must
// match the seed reference query for query (checkQueriesAgree). Every drawn
// program has genWide's keyed w/4 buckets, so the VM's candidate filter and
// its bulk charge run under the 4000-inference budget here and under the
// tight budgets checkQueriesAgree draws for its packs; and rules that call
// rules on ground arguments (v/1, rc/1), so held queries and packs record and
// replay ground calls, disable cyclic ones, and are proved again in exact
// mode after a budget event. Run with
// `go test -fuzz=FuzzVMMatchesInterpreter ./internal/solve` to explore
// beyond the seed corpus.
func FuzzVMMatchesInterpreter(f *testing.F) {
	// Seed corpus: the deterministic differential suite's seed range plus a
	// few larger values so minimization has somewhere interesting to start.
	// 1, 10, 13, 24 and 39 draw the tightest pack budgets (3 or 5
	// inferences): any bucket scan there is cut off within its first few
	// candidates, skipped or not.
	for _, seed := range []int64{0, 1, 2, 3, 7, 10, 11, 13, 24, 39, 1 << 20, -1} {
		f.Add(seed)
	}
	budget := Budget{MaxDepth: 12, MaxInferences: 4000}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		kb := genProgram(rng)
		vm := NewMachine(kb, budget)
		interp := NewMachine(kb, budget)
		interp.SetNoVM(true)
		for q := 0; q < 10; q++ {
			goals, nVars := genGoal(rng)
			var got, want []string
			vm.Solve(goals, nVars, func(bs *logic.Bindings) bool {
				got = append(got, solutionString(bs, nVars))
				return len(got) < 200
			})
			interp.Solve(goals, nVars, func(bs *logic.Bindings) bool {
				want = append(want, solutionString(bs, nVars))
				return len(want) < 200
			})
			if len(got) != len(want) {
				t.Fatalf("seed %d query %d: VM %d solutions, interpreter %d\n vm: %v\nint: %v",
					seed, q, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d query %d: solution %d = %q, interpreter %q",
						seed, q, i, got[i], want[i])
				}
			}
			if vm.TotalInferences() != interp.TotalInferences() {
				t.Fatalf("seed %d query %d: VM charged %d inferences, interpreter %d",
					seed, q, vm.TotalInferences(), interp.TotalInferences())
			}
			if vm.CutoffQueries() != interp.CutoffQueries() {
				t.Fatalf("seed %d query %d: VM hit %d cutoffs, interpreter %d",
					seed, q, vm.CutoffQueries(), interp.CutoffQueries())
			}
		}
		checkQueriesAgree(t, rng, kb, budget, 6)
	})
}
