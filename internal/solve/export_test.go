package solve

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

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

// HandBuiltProverMatchesOracle asks the property of four of the exact-mode
// tests' hand-built programs (exact_test.go): at DefaultBudget and on a
// ladder of budgets across every depth of the sweep the packs, whose budget
// events land in prefixes and suffixes, and the memo depth program, whose
// recorded calls are replayed deeper than they were recorded; and over the
// whole sweep the packs of one-goal suffixes and the head-stream program,
// each cut at every charge.
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
	for _, in := range []oracleInput{suffixInput(t), streamInput(t)} {
		use.Add(sweep(t, &in))
	}
	return use
}

// SwitchesMatchSeedIndex holds the compiled switches of the corner-case
// program switchKB, of genProgram programs and of each of kbs, in name
// order, to the seed index (differential_test.go).
func SwitchesMatchSeedIndex(t *testing.T, kbs map[string]*KB) {
	switchesMatchSeedIndex(t, "corner cases", switchKB(t))
	for seed := int64(0); seed < 8; seed++ {
		switchesMatchSeedIndex(t, fmt.Sprintf("genProgram(%d)", seed), genProgram(rand.New(rand.NewSource(seed))))
	}
	for _, name := range slices.Sorted(maps.Keys(kbs)) {
		switchesMatchSeedIndex(t, name, kbs[name])
	}
}

// CompileKB compiles kb afresh, bypassing the KB's cached program.
func CompileKB(kb *KB) { compileKB(kb) }

// CompiledFootprint is the size in bytes of kb's compiled program, counted
// from the program's own slices rather than from the heap: every compiled
// clause with its head stream and body frames, and every distinct candidate
// list with its candidates and keys. It is a deterministic function of the
// KB, so it pins the program's layout where a heap delta would drift.
func CompiledFootprint(kb *KB) int {
	lists := map[*candList]bool{}
	for _, cp := range kb.program().preds.all() {
		lists[cp.all] = true
		for _, sw := range []*vmSwitch{&cp.arg1, &cp.arg2} {
			lists[sw.miss] = true
			for _, l := range sw.dense {
				if l != nil {
					lists[l] = true
				}
			}
			for _, l := range sw.byNum {
				lists[l] = true
			}
		}
	}
	clauses := map[*compiledClause]bool{}
	n := 0
	for l := range lists {
		n += int(unsafe.Sizeof(*l)) + len(l.cands)*int(unsafe.Sizeof(vmCand{})) + len(l.keys)*int(unsafe.Sizeof(uint32(0)))
		for i := range l.cands {
			clauses[l.cands[i].cc] = true
		}
	}
	for cc := range clauses {
		n += int(unsafe.Sizeof(*cc)) + len(cc.frames)*int(unsafe.Sizeof(goalFrame{})) + len(cc.head)*int(unsafe.Sizeof(instr{}))
	}
	return n
}
