package solve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/logic"
)

// The tests here pin the ground-call memo (memo.go): that a replayed call is
// charged exactly what the oracle charges for proving it, through cyclic
// recursion and program changes, and that what the memo keeps is bounded.
// Every budget and depth is TestMemoBudgetSweep's and TestMemoDepthGuard's
// (exact_test.go).

// memoCase asks the property rules on examples, rule by rule, at budget.
func memoCase(t *testing.T, kb *KB, budget Budget, rules []string, examples ...string) *oracleRun {
	t.Helper()
	in := oracleInput{name: "memo", kb: kb, groups: []oracleGroup{group(0, strings.Join(examples, " "), rules...)}}
	return proverMatchesOracle(t, &in, budget)
}

// memoKB has ground calls to rules with one solution (polar_gte), with one
// solution per level at or below the group's polarity (polar_any), and
// nested (both, through strong), reached from subst/3 with every group more
// than once per drug.
func memoKB(t *testing.T) *KB {
	return kbFrom(t, `
		level(1). level(2). level(3).
		polar(g1, 3). polar(g2, 1). polar(g3, 2).
		subst(d1, p1, g1). subst(d1, p2, g2). subst(d1, p3, g1). subst(d1, p4, g2).
		subst(d2, p1, g3). subst(d2, p2, g3). subst(d2, p3, g2). subst(d2, p4, g1).
		polar_gte(G, L) :- polar(G, V), level(L), V >= L.
		polar_any(G) :- polar(G, V), level(L), V >= L.
		strong(G) :- polar_any(G), polar_gte(G, 3).
		marked(d2, g1).
	`)
}

// TestMemoCyclicGroundRecursion: reach(a, a) recurses through the cycle
// a → b → a until MaxDepth cuts it, so its recording hits the budget and the
// entry — like that of every ground reach call beneath it — is disabled:
// nothing is replayed, and the charges are the oracle's whether the
// continuation stops at the first solution or exhausts the cycle.
func TestMemoCyclicGroundRecursion(t *testing.T) {
	kb := kbFrom(t, `
		edge(a, b). edge(b, a). edge(b, c).
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
		never(zz).
	`)
	run := memoCase(t, kb, Budget{MaxDepth: 12}, []string{"h(X) :- reach(a, a).", "h(X) :- reach(a, a), never(X)."}, "h(q)", "h(q)")
	if run.all.Replayed != 0 {
		t.Fatalf("%d inferences replayed from a cyclic call", run.all.Replayed)
	}
	for _, call := range []string{"reach(a, a)", "reach(b, a)"} {
		if e, ok := recorded(run.held, call); !ok || !e.off {
			t.Fatalf("%s: recorded %v, entry %+v — want a disabled entry", call, ok, e)
		}
	}
}

// recorded returns the memo entry of a ground call written as source.
func recorded(m *Machine, src string) (memoEntry, bool) {
	call := logic.MustParseTerm(src)
	key := memoKey{cp: m.prog.predFor(call)}
	for i, a := range call.Args {
		key.kinds[i] = a.Kind
		if a.Kind == logic.Atom {
			key.vals[i] = uint64(a.Sym)
		} else {
			key.vals[i] = math.Float64bits(a.Num)
		}
	}
	return m.memo.lookup(&key)
}

// memoEntries lists what a machine's memo holds.
func memoEntries(m *Machine) map[memoKey]memoEntry {
	out := map[memoKey]memoEntry{}
	for _, s := range m.memo.slots {
		if s.key.cp != nil {
			out[s.key] = s.memoEntry
		}
	}
	return out
}

// programPreds lists every compiled predicate of a program.
func programPreds(pr *program) map[*compiledPred]bool {
	out := map[*compiledPred]bool{}
	for _, cp := range pr.direct {
		if cp != nil {
			out[cp] = true
		}
	}
	for _, entries := range pr.bySym {
		for _, e := range entries {
			out[e.cp] = true
		}
	}
	return out
}

// TestMemoAfterKBAdd: a KB.Add between two queries changes what a recorded
// ground call charges. The next query must match the oracle's, and the
// table must hold nothing recorded against the program the Add replaced.
func TestMemoAfterKBAdd(t *testing.T) {
	kb := memoKB(t)
	rule := logic.MustParseClause("h(D) :- subst(D, P, G), polar_gte(G, 2), marked(D, G).")
	ex := logic.MustParseTerm("h(d1)")
	m := NewMachine(kb, DefaultBudget)
	var q Query
	m.CompileQuery(&q, &rule)
	check := func(what string) {
		t.Helper()
		want := newRefMachine(kb, DefaultBudget).run(&rule, ex)
		for i := 0; i < 2; i++ {
			if got := runCovers(m, func() bool { return m.CoversQuery(&q, ex) }); got != want {
				t.Fatalf("%s: held query %+v, oracle %+v", what, got, want)
			}
		}
		live := programPreds(kb.program())
		for k := range memoEntries(m) {
			if !live[k.cp] {
				t.Fatalf("%s: the table holds a call recorded against a replaced program", what)
			}
		}
	}
	check("initial")
	if m.ReplayedInferences() == 0 {
		t.Fatal("nothing replayed before the Add")
	}
	kb.Add(logic.MustParseClause("polar(g1, 0)."))
	kb.Add(logic.MustParseClause("polar_gte(G, L) :- marked(d1, G)."))
	kb.Add(logic.MustParseClause("marked(d1, g1)."))
	check("after KB.Add")
}

// TestMemoCaps: the table never holds more than memoMaxEntries calls, a
// subtree past memoMaxRecord charges and a call with more than
// memoMaxSolutions solutions are disabled rather than replayed — and the
// charges stay the oracle's through all three.
func TestMemoCaps(t *testing.T) {
	var src strings.Builder
	src.WriteString(`
		g(X) :- X >= 0.
		big(X) :- num(N), N < 0.
		many(X) :- few(N).
	`)
	for i := 0; i < memoMaxRecord/2+50; i++ {
		fmt.Fprintf(&src, "num(%d).\n", i)
	}
	for i := 0; i < memoMaxSolutions+36; i++ {
		fmt.Fprintf(&src, "few(%d).\n", i)
	}
	kb := kbFrom(t, src.String())

	// One distinct ground call per example, past the table cap.
	vm, ref := NewMachine(kb, DefaultBudget), newRefMachine(kb, DefaultBudget)
	rule := logic.MustParseClause("h(X) :- g(X).")
	var q Query
	vm.CompileQuery(&q, &rule)
	for i := 0; i < memoMaxEntries+100; i++ {
		ex := logic.Comp("h", logic.IntTerm(int64(i)))
		if got, want := runCovers(vm, func() bool { return vm.CoversQuery(&q, ex) }), ref.run(&rule, ex); got != want {
			t.Fatalf("h(%d): %+v, oracle %+v", i, got, want)
		}
		if n := vm.memo.used; n > memoMaxEntries {
			t.Fatalf("after h(%d) the table holds %d calls, cap %d", i, n, memoMaxEntries)
		}
	}
	if n := len(memoEntries(vm)); n != vm.memo.used || 2*n > len(vm.memo.slots) {
		t.Fatalf("the table counts %d calls and holds %d in %d slots", vm.memo.used, n, len(vm.memo.slots))
	}

	// A recording too long to keep, and one with too many solutions (the
	// continuation fails, so every one of them is asked for).
	for _, tc := range []struct{ rule, call string }{
		{"h(X) :- big(X).", "big(a)"},
		{"h(X) :- many(X), nope(X).", "many(a)"},
	} {
		run := memoCase(t, kb, DefaultBudget, []string{tc.rule}, "h(a)", "h(a)", "h(a)")
		if run.all.Replayed != 0 || run.total().cutoffs != 0 {
			t.Fatalf("%s: %d replayed, %d cutoff queries", tc.rule, run.all.Replayed, run.total().cutoffs)
		}
		if e, ok := recorded(run.held, tc.call); !ok || !e.off {
			t.Fatalf("%s: %s recorded %v, entry %+v — want a disabled entry", tc.rule, tc.call, ok, e)
		}
	}
}
