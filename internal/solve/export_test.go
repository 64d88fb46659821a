package solve

import "testing"

// OracleGroup is a group of rules asked on examples and, when Prefix > 0,
// asked as one QueryPack sharing that many leading body literals.
type OracleGroup = oracleGroup

// OracleUse is how much the VM's machines used each fast path.
type OracleUse = fastUse

// ProverMatchesOracle asks the property (oracle_test.go) of groups over kb
// at every budget, and returns the VM's use of the fast paths.
func ProverMatchesOracle(t testing.TB, name string, kb *KB, groups []OracleGroup, budgets ...Budget) OracleUse {
	t.Helper()
	in := oracleInput{name: name, kb: kb, groups: groups}
	var use fastUse
	for _, b := range budgets {
		use.Add(proverMatchesOracle(t, &in, b).all)
	}
	return use
}

// HandBuiltProverMatchesOracle asks the property of three of the exact-mode
// tests' hand-built programs (exact_test.go): at DefaultBudget and on a
// ladder of budgets across every depth of the sweep the packs, whose budget
// events land in prefixes and suffixes, and the memo depth program, whose
// recorded calls are replayed deeper than they were recorded; and over the
// whole sweep the packs of one-goal suffixes, each cut at every charge.
func HandBuiltProverMatchesOracle(t *testing.T) OracleUse {
	var use fastUse
	for _, in := range []oracleInput{packInput(t), depthInput(t)} {
		use.Add(proverMatchesOracle(t, &in, DefaultBudget).all)
		for _, maxInf := range []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89} {
			for _, d := range sweepDepths {
				use.Add(proverMatchesOracle(t, &in, Budget{MaxInferences: maxInf, MaxDepth: d}).all)
			}
		}
	}
	in := suffixInput(t)
	use.Add(sweep(t, &in))
	return use
}
