package solve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/logic"
)

// The tests here pin the VM's candidate filter (candList.keys, runCands):
// what a key may and may not tell apart and what the keys cost. That a run of
// skipped candidates charged in one chargeN is indistinguishable from the
// seed engine charging them one by one, at every cutoff point, is
// TestBulkChargeMatchesPerCandidate's (exact_test.go).

// eachList visits every candidate list of a compiled program with its
// predicate's arity.
func eachList(pr *program, visit func(l *candList, arity int)) {
	pred := func(cp *compiledPred) {
		arity := int(cp.arity)
		visit(cp.all, arity)
		for _, sw := range []*vmSwitch{&cp.arg1, &cp.arg2} {
			visit(sw.miss, arity)
			for _, l := range sw.dense {
				if l != nil {
					visit(l, arity)
				}
			}
			for _, l := range sw.byNum {
				visit(l, arity)
			}
		}
	}
	for _, cp := range pr.direct {
		if cp != nil {
			pred(cp)
		}
	}
	for _, entries := range pr.bySym {
		for _, e := range entries {
			pred(e.cp)
		}
	}
}

// TestFilterKeyBudget bounds what the keys add to a compiled program: four
// bytes per (argument position, candidate) of a keyed list at most, and no
// keys at all where the filter cannot pay — lists under filterMinCands, and
// predicates wider than the walk cache.
func TestFilterKeyBudget(t *testing.T) {
	kb := benchRuleKB(400)
	wide := make([]string, maxCachedArity+1)
	for i := 0; i < 12; i++ {
		for j := range wide {
			wide[j] = fmt.Sprintf("c%d", (i+j)%3)
		}
		kb.AddFact(logic.MustParseTerm("wide(" + strings.Join(wide, ", ") + ")"))
		kb.Add(logic.MustParseClause("open(k, X, Y).")) // a long k bucket with nothing constant left to compare
	}
	var keyed, keyBytes, budget int
	eachList(compileKB(kb), func(l *candList, arity int) {
		n := len(l.cands)
		if l.keys == nil {
			return
		}
		keyed++
		keyBytes += 4 * len(l.keys)
		budget += 4 * arity * n
		cols := arity
		if l.skip >= 0 {
			cols--
		}
		if n < filterMinCands || arity > maxCachedArity {
			t.Errorf("a list of %d candidates of arity %d carries keys", n, arity)
		}
		if len(l.keys) != cols*n {
			t.Errorf("a list of %d candidates of arity %d, skip %d, has %d keys, want %d", n, arity, l.skip, len(l.keys), cols*n)
		}
		constant := false
		for _, key := range l.keys {
			constant = constant || key != 0
		}
		if !constant {
			t.Errorf("a list of %d candidates of arity %d carries nothing but wildcards", n, arity)
		}
	})
	if keyed == 0 {
		t.Fatal("no keyed list in the program")
	}
	if keyBytes > budget {
		t.Errorf("%d key bytes over %d keyed lists, budget 4 × Σ arity × len = %d", keyBytes, keyed, budget)
	}
	t.Logf("%d keyed lists, %d key bytes of a budget of %d", keyed, keyBytes, budget)
}

// TestFilterKeyEncoding: equal constants share a key however they are
// written, an atom's key is never a number's, no constant gets the wildcard —
// and through the engine (a case of the prover oracle), one bucket holding
// every kind of head argument answers every kind of goal argument as the
// seed engine does, skipping exactly the candidates whose constants
// disagree.
func TestFilterKeyEncoding(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if numKey(negZero) != numKey(0) {
		t.Error("-0.0 and 0.0 unify but have different keys")
	}
	if logic.IntTerm(1).Num != logic.FloatTerm(1.0).Num {
		t.Fatal("Int 1 and Float 1.0 differ in Num") // keys are derived from Num alone
	}
	seen := map[uint32]float64{}
	for _, f := range []float64{0, 1, -1, 2, 7, 10, 22, 0.1, -0.1, 0.4, -0.4, 1e9, -1e9, 1 << 40, math.Inf(1), math.MaxFloat64} {
		key := numKey(f)
		if key&1 == 0 {
			t.Errorf("numKey(%v) = %#x is an atom's key or the wildcard", f, key)
		}
		if g, dup := seen[key]; dup {
			t.Errorf("numKey(%v) == numKey(%v)", f, g) // allowed, but not among everyday numbers
		}
		seen[key] = f
	}
	for _, s := range []logic.Symbol{0, 1, logic.Intern("one"), 1<<30 - 2} {
		if key := atomKey(s); key == 0 || key&1 == 1 {
			t.Errorf("atomKey(%d) = %#x is the wildcard or a number's key", s, key)
		}
	}

	kb := NewKB()
	k, x, y := logic.A("k"), logic.A("x"), logic.A("y")
	for i, f := range [][2]logic.Term{
		{logic.IntTerm(1), x},
		{logic.FloatTerm(1.0), x},
		{logic.FloatTerm(0), y},
		{logic.FloatTerm(negZero), y},
		{logic.A("one"), x},
		{logic.Comp("f", logic.IntTerm(1)), x},
		{logic.V(0), x}, // a non-ground fact
	} {
		kb.Add(logic.Clause{Head: logic.Comp("m", k, logic.A(fmt.Sprintf("t%d", i)), f[0], f[1])})
	}
	if err := kb.AddSource(`
		m(k, V, 2, V).
		m(j, t8, 1, x).
		m(k, viarule, 1, Z) :- ok(Z).
		m(j, viarule, W, y) :- ok(W).
		ok(x). ok(y). ok(1).
	`); err != nil {
		t.Fatal(err)
	}

	// With its second argument unbound a goal m(k, …) scans the k bucket:
	// the eight k facts and, their first argument unproved, both rules.
	parse := logic.MustParseTerm
	for _, tc := range []struct {
		goal      logic.Term
		solutions int
		filtered  int64
	}{
		{parse("m(k, T, 1, B)"), 6, 4},   // Int 1, Float 1.0, the variable, the k rule three times
		{parse("m(k, T, 1.0, B)"), 6, 4}, // the same goal written as a float
		{parse("m(k, T, 0, B)"), 3, 5},   // 0.0, -0.0 and the variable
		{logic.Comp("m", k, logic.V(0), logic.FloatTerm(negZero), logic.V(1)), 3, 5},
		{parse("m(k, T, one, B)"), 2, 6},  // no number passes an atom
		{parse("m(k, T, f(1), B)"), 2, 0}, // a compound goal argument filters nothing
		{parse("m(k, T, A, A)"), 3, 0},    // nor does a variable, repeated or not
		{parse("m(k, T, N, x)"), 7, 3},    // the last column: y, y and the j rule's y
		{parse("m(k, T, 2, T)"), 1, 6},    // a repeated goal variable beside a constant
		{parse("m(k, T, 2, zz)"), 1, 9},   // two constant columns at once
		{parse("m(K, t0, 1, B)"), 1, 1},   // the second-argument bucket of t0: two facts, two rules
		{parse("m(k, t4, one, x)"), 1, 0}, // a statically ground goal takes the equality streams
	} {
		// Solve runs in exact mode. The filter runs in existence queries,
		// so it counts over a query that fails after every solution.
		goals := []logic.Literal{logic.Lit(tc.goal)}
		fails := logic.Clause{Head: logic.A("f"), Body: append(goals, logic.Lit(logic.A("nosuch")))}
		in := oracleInput{name: tc.goal.String(), kb: kb, enums: [][]logic.Literal{goals},
			groups: []oracleGroup{{Rules: []*logic.Clause{&fails}, Examples: []logic.Term{fails.Head}}}}
		run := proverMatchesOracle(t, &in, DefaultBudget)
		if want := newRefMachine(kb, DefaultBudget).enumerate(goals); strings.Count(want.solutions, ";")+1 != tc.solutions {
			t.Errorf("%s: solutions %v, expected %d", tc.goal, want.solutions, tc.solutions)
		}
		if run.cold.Filtered != tc.filtered {
			t.Errorf("%s: %d candidates filtered, expected %d", tc.goal, run.cold.Filtered, tc.filtered)
		}
	}
}
