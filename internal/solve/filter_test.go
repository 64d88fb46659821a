package solve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/logic"
)

// The tests here pin the VM's candidate filter (candList.keys, runCands):
// what a key may and may not tell apart, what the keys cost, and that a run
// of skipped candidates charged in one chargeN is indistinguishable from the
// interpreter charging them one by one — at every possible cutoff point.

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
// and through the engine, one bucket holding every kind of head argument
// answers every kind of goal argument as the interpreter does, skipping
// exactly the candidates whose constants disagree.
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
		goal := tc.goal
		goals, nv := []logic.Literal{logic.Lit(goal)}, goal.MaxVar()+1
		run := func(novm bool) (sols []string, inf, filtered int64) {
			m := NewMachine(kb, DefaultBudget)
			m.SetNoVM(novm)
			m.Solve(goals, nv, func(bs *logic.Bindings) bool {
				sols = append(sols, solutionString(bs, nv))
				return true
			})
			return sols, m.TotalInferences(), m.FilteredCandidates()
		}
		want, wantInf, interpFiltered := run(true)
		got, gotInf, filtered := run(false)
		if fmt.Sprint(got) != fmt.Sprint(want) || gotInf != wantInf {
			t.Errorf("%s: VM %v in %d inferences, interpreter %v in %d", goal, got, gotInf, want, wantInf)
		}
		if interpFiltered != 0 {
			t.Errorf("%s: the interpreter reports %d filtered candidates", goal, interpFiltered)
		}
		if len(want) != tc.solutions {
			t.Errorf("%s: %d solutions %v, expected %d", goal, len(want), want, tc.solutions)
		}
		if !envNoVM && filtered != tc.filtered {
			t.Errorf("%s: %d candidates filtered, expected %d", goal, filtered, tc.filtered)
		}
	}
}

// bulkKB is TestBulkChargeMatchesPerCandidate's program: one 20-fact
// first-argument bucket of w/4 in which the goal w(k, X, red, 1) matches
// facts 4, 5 and 12 — a rejected run of four at the head of the bucket, of
// six in the middle, of seven at the tail — with enough below each match for
// a budget to run out there as well.
func bulkKB(t *testing.T) *KB {
	var src strings.Builder
	for i := 0; i < 20; i++ {
		col, n := []string{"blue", "green", "red"}[i%3], 2
		if i == 4 || i == 5 || i == 12 {
			col, n = "red", 1
		} else if i%3 == 2 {
			n = 3 // red, but not 1
		}
		fmt.Fprintf(&src, "w(k, a%d, %s, %d).\n", i, col, n)
	}
	src.WriteString(`
		w(j, b0, red, 1).
		good(a12). fine(a5). fine(a12).
		twin(X) :- w(k, X, C, N), w(k, Y, blue, 2), fine(X), last(Y).
		last(a18).
	`)
	return kbFrom(t, src.String())
}

// TestBulkChargeMatchesPerCandidate sweeps MaxInferences over every value
// from 1 to past the longest proof, so that the cutoff lands on every charge
// of every query once: inside each skipped run, on the candidate after it,
// below a matched candidate — after which the rest of the bucket is scanned
// with the budget already spent, where each charge fails and still counts.
// VM and interpreter must agree on answers, solution order, TotalInferences
// and CutoffQueries, query by query and as members of one QueryPack whose
// prefix and suffixes both scan the bucket.
func TestBulkChargeMatchesPerCandidate(t *testing.T) {
	kb := bulkKB(t)
	ex := logic.MustParseTerm("h(e)")
	var rules []*logic.Clause
	for _, src := range []string{
		"h(E) :- w(k, X, red, 1), good(X).",
		"h(E) :- w(k, X, red, 1), w(k, Y, blue, 2), last(Y), good(X).",
		"h(E) :- w(k, X, red, 1), twin(X), good(X).",
		"h(E) :- w(k, X, red, 1), w(k, X, green, N).",
		"h(E) :- w(k, X, red, 1), w(k, Y, C, 1), Y \\= X, nosuch(Y).",
	} {
		r := logic.MustParseClause(src)
		rules = append(rules, &r)
	}
	enum := logic.MustParseClause("all(X, Y) :- w(k, X, red, N), w(k, Y, C, 3), twin(X).")

	type outcome struct {
		runs      []coverRun
		solutions []string
		enumInf   int64
		enumCut   int64
	}
	// alone proves every rule by itself and enumerates enum's body.
	alone := func(budget Budget, novm bool) (o outcome, filtered int64) {
		m := NewMachine(kb, budget)
		m.SetNoVM(novm)
		for _, r := range rules {
			var q Query
			m.CompileQuery(&q, r)
			o.runs = append(o.runs, runCovers(m, func() bool { return m.CoversQuery(&q, ex) }))
		}
		inf, cut := m.TotalInferences(), m.CutoffQueries()
		m.Solve(enum.Body, enum.NumVars(), func(bs *logic.Bindings) bool {
			o.solutions = append(o.solutions, solutionString(bs, 2))
			return true
		})
		o.enumInf, o.enumCut = m.TotalInferences()-inf, m.CutoffQueries()-cut
		return o, m.FilteredCandidates()
	}
	// packed runs the rules as one pack over their shared first literal.
	packed := func(budget Budget, novm bool) []coverRun {
		m := NewMachine(kb, budget)
		m.SetNoVM(novm)
		var pack QueryPack
		m.CompilePack(&pack, rules, 1)
		hit := make([]bool, len(rules))
		total := runCovers(m, func() bool { m.CoversPack(&pack, ex, hit); return false })
		runs := make([]coverRun, len(rules))
		var sum int64
		for c := range rules {
			runs[c] = coverRun{covered: hit[c], inferences: pack.Charged(c)}
			sum += pack.Charged(c)
		}
		if sum != total.inferences {
			t.Fatalf("budget %d novm=%v: pack members charged %d, the machine %d", budget.MaxInferences, novm, sum, total.inferences)
		}
		runs = append(runs, coverRun{cutoffs: total.cutoffs}) // cutoffs are per pack, not per member
		return runs
	}

	free, filtered := alone(DefaultBudget, false)
	if !envNoVM && filtered == 0 {
		t.Fatal("the VM filtered nothing: the bucket is not keyed")
	}
	if _, f := alone(DefaultBudget, true); f != 0 {
		t.Fatalf("the interpreter reports %d filtered candidates", f)
	}
	longest := free.enumInf
	for _, r := range free.runs {
		longest = max(longest, r.inferences)
	}
	if !free.runs[0].covered || !free.runs[1].covered || !free.runs[2].covered || free.runs[3].covered || free.runs[4].covered || len(free.solutions) == 0 {
		t.Fatalf("unbounded outcomes are not what the sweep was built around: %+v", free)
	}
	cutoffs := int64(0)
	for maxInf := int64(1); maxInf <= longest+3; maxInf++ {
		budget := Budget{MaxInferences: maxInf}
		want, _ := alone(budget, true)
		got, _ := alone(budget, false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("MaxInferences %d, stand-alone:\n       VM %+v\ninterpreter %+v", maxInf, got, want)
		}
		wantPack := packed(budget, true)
		for c, r := range want.runs {
			if wantPack[c].covered != r.covered || wantPack[c].inferences != r.inferences {
				t.Fatalf("MaxInferences %d: interpreter pack member %d %+v, stand-alone %+v", maxInf, c, wantPack[c], r)
			}
		}
		if gotPack := packed(budget, false); fmt.Sprint(gotPack) != fmt.Sprint(wantPack) {
			t.Fatalf("MaxInferences %d, packed:\n       VM %+v\ninterpreter %+v", maxInf, gotPack, wantPack)
		}
		cutoffs += want.enumCut
		for _, r := range want.runs {
			cutoffs += r.cutoffs
		}
	}
	if cutoffs < longest {
		t.Errorf("only %d cutoff queries over a sweep of %d budgets", cutoffs, longest+3)
	}
}
