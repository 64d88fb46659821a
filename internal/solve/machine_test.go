package solve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

func kbFrom(t *testing.T, src string) *KB {
	t.Helper()
	kb := NewKB()
	if err := kb.AddSource(src); err != nil {
		t.Fatal(err)
	}
	return kb
}

func TestProveFacts(t *testing.T) {
	kb := kbFrom(t, `
		edge(a, b). edge(b, c). edge(c, d).
	`)
	m := NewMachine(kb, DefaultBudget)
	if !m.ProveAtom(logic.MustParseTerm("edge(a, b)")) {
		t.Fatal("known fact not proved")
	}
	if m.ProveAtom(logic.MustParseTerm("edge(a, c)")) {
		t.Fatal("absent fact proved")
	}
	if m.ProveAtom(logic.MustParseTerm("nosuch(a)")) {
		t.Fatal("unknown predicate proved")
	}
}

func TestProveConjunction(t *testing.T) {
	kb := kbFrom(t, `edge(a, b). edge(b, c).`)
	m := NewMachine(kb, DefaultBudget)
	c := logic.MustParseClause("goal :- edge(X, Y), edge(Y, Z).")
	if !m.Prove(c.Body, c.NumVars()) {
		t.Fatal("two-hop conjunction not proved")
	}
	c2 := logic.MustParseClause("goal :- edge(X, Y), edge(Y, X).")
	if m.Prove(c2.Body, c2.NumVars()) {
		t.Fatal("cycle proved in acyclic graph")
	}
}

func TestRulesAndRecursion(t *testing.T) {
	kb := kbFrom(t, `
		edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`)
	m := NewMachine(kb, DefaultBudget)
	if !m.ProveAtom(logic.MustParseTerm("path(a, d)")) {
		t.Fatal("transitive path not proved")
	}
	if m.ProveAtom(logic.MustParseTerm("path(d, a)")) {
		t.Fatal("reverse path proved")
	}
}

func TestDepthBoundStopsLeftRecursion(t *testing.T) {
	kb := kbFrom(t, `
		p(X) :- p(X).
		p(a).
	`)
	m := NewMachine(kb, Budget{MaxDepth: 16, MaxInferences: 1 << 16})
	// The left-recursive clause is explored first and cut by depth; the
	// fact (added second, scanned after rules? facts come first) proves it.
	if !m.ProveAtom(logic.A("q_unprovable")) == false {
		t.Log("sanity")
	}
	if !m.ProveAtom(logic.MustParseTerm("p(a)")) {
		t.Fatal("p(a) should be provable despite recursive clause")
	}
	if m.ProveAtom(logic.MustParseTerm("p(b)")) {
		t.Fatal("p(b) proved")
	}
	if m.CutoffQueries() == 0 {
		t.Fatal("expected the p(b) query to hit the depth bound")
	}
}

func TestInferenceBudget(t *testing.T) {
	var src string
	for i := 0; i < 200; i++ {
		src += fmt.Sprintf("n(%d). ", i)
	}
	src += "big :- n(X), n(Y), n(Z), X > Y, Y > Z, Z > 198."
	kb := kbFrom(t, src)
	m := NewMachine(kb, Budget{MaxDepth: 16, MaxInferences: 100})
	if m.ProveAtom(logic.A("big")) {
		t.Fatal("goal proved despite tiny budget")
	}
	if m.CutoffQueries() != 1 {
		t.Fatalf("CutoffQueries = %d, want 1", m.CutoffQueries())
	}
	if m.TotalInferences() == 0 {
		t.Fatal("no inferences recorded")
	}
}

func TestNegationAsFailure(t *testing.T) {
	kb := kbFrom(t, `
		bird(tweety). bird(pingu).
		penguin(pingu).
		flies(X) :- bird(X), \+penguin(X).
	`)
	m := NewMachine(kb, DefaultBudget)
	if !m.ProveAtom(logic.MustParseTerm("flies(tweety)")) {
		t.Fatal("tweety should fly")
	}
	if m.ProveAtom(logic.MustParseTerm("flies(pingu)")) {
		t.Fatal("pingu should not fly")
	}
}

func TestBuiltins(t *testing.T) {
	kb := kbFrom(t, `val(x, 3). val(y, 7).`)
	m := NewMachine(kb, DefaultBudget)
	cases := []struct {
		goal string
		want bool
	}{
		{"ok :- val(x, V), V < 5.", true},
		{"ok :- val(x, V), V > 5.", false},
		{"ok :- val(y, V), V >= 7.", true},
		{"ok :- val(y, V), V =< 6.", false},
		{"ok :- val(x, V), val(y, W), V \\= W.", true},
		{"ok :- val(x, V), V = 3.", true},
		{"ok :- val(x, V), V = 4.", false},
		{"ok :- X is 3 + 4, X > 6.", true},
		{"ok :- X is 2 * 5, X = 10.", true},
		{"ok :- X is 7 - 2, Y is X / 5, Y = 1.", true},
		{"ok :- true.", true},
		{"ok :- fail.", false},
	}
	for _, c := range cases {
		cl := logic.MustParseClause(c.goal)
		if got := m.Prove(cl.Body, cl.NumVars()); got != c.want {
			t.Errorf("%s: got %v, want %v", c.goal, got, c.want)
		}
	}
}

func TestSolveEnumerates(t *testing.T) {
	kb := kbFrom(t, `edge(a, b). edge(a, c). edge(a, d).`)
	m := NewMachine(kb, DefaultBudget)
	goal := logic.MustParseTerm("edge(a, X)")
	var got []string
	m.Solve([]logic.Literal{logic.Lit(goal)}, 1, func(bs *logic.Bindings) bool {
		got = append(got, bs.Resolve(logic.V(0)).String())
		return true
	})
	want := []string{"b", "c", "d"}
	if len(got) != 3 {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solution order: got %v, want %v", got, want)
		}
	}
}

func TestSolveEarlyStop(t *testing.T) {
	kb := kbFrom(t, `edge(a, b). edge(a, c). edge(a, d).`)
	m := NewMachine(kb, DefaultBudget)
	goal := logic.MustParseTerm("edge(a, X)")
	count := 0
	m.Solve([]logic.Literal{logic.Lit(goal)}, 1, func(*logic.Bindings) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("yield called %d times, want 2", count)
	}
}

func TestCoversExample(t *testing.T) {
	kb := kbFrom(t, `
		atm(m1, a1, carbon). atm(m1, a2, oxygen).
		atm(m2, a3, carbon). atm(m2, a4, carbon).
		bondx(m1, a1, a2). bondx(m2, a3, a4).
	`)
	m := NewMachine(kb, DefaultBudget)
	rule := logic.MustParseClause("active(M) :- atm(M, A, carbon), bondx(M, A, B), atm(M, B, oxygen).")
	if !m.CoversExample(&rule, logic.MustParseTerm("active(m1)")) {
		t.Fatal("rule should cover m1")
	}
	if m.CoversExample(&rule, logic.MustParseTerm("active(m2)")) {
		t.Fatal("rule should not cover m2 (no oxygen)")
	}
}

func TestCoversExampleHeadMismatch(t *testing.T) {
	kb := NewKB()
	m := NewMachine(kb, DefaultBudget)
	rule := logic.MustParseClause("active(m9) :- true.")
	if m.CoversExample(&rule, logic.MustParseTerm("active(m1)")) {
		t.Fatal("ground head should only cover its own example")
	}
	if !m.CoversExample(&rule, logic.MustParseTerm("active(m9)")) {
		t.Fatal("ground head should cover its own example")
	}
}

func TestIndexingMatchesLinearScan(t *testing.T) {
	// Build a KB with many constants; compare indexed query results with a
	// brute-force over the facts.
	rng := rand.New(rand.NewSource(7))
	type fact struct{ a, b int }
	var facts []fact
	kb := NewKB()
	for i := 0; i < 300; i++ {
		f := fact{rng.Intn(20), rng.Intn(20)}
		facts = append(facts, f)
		kb.AddFact(logic.Comp("r", logic.A(fmt.Sprintf("c%d", f.a)), logic.IntTerm(int64(f.b))))
	}
	m := NewMachine(kb, DefaultBudget)
	for q := 0; q < 20; q++ {
		want := 0
		for _, f := range facts {
			if f.a == q {
				want++
			}
		}
		got := 0
		goal := logic.Comp("r", logic.A(fmt.Sprintf("c%d", q)), logic.V(0))
		m.Solve([]logic.Literal{logic.Lit(goal)}, 1, func(*logic.Bindings) bool {
			got++
			return true
		})
		if got != want {
			t.Fatalf("first-arg c%d: got %d solutions, want %d", q, got, want)
		}
	}
}

func TestUnindexedFactsStillFound(t *testing.T) {
	kb := NewKB()
	// Fact with a variable first argument is unindexed but must be found.
	kb.Add(logic.MustParseClause("any(X, tagged)."))
	kb.Add(logic.MustParseClause("any(k, direct)."))
	m := NewMachine(kb, DefaultBudget)
	if !m.ProveAtom(logic.MustParseTerm("any(k, tagged)")) {
		t.Fatal("variable-headed fact not found via indexed path")
	}
	if !m.ProveAtom(logic.MustParseTerm("any(zz, tagged)")) {
		t.Fatal("variable-headed fact not found for unknown constant")
	}
	if !m.ProveAtom(logic.MustParseTerm("any(k, direct)")) {
		t.Fatal("indexed fact lost")
	}
}

// TestCloneIndependence extends a clone with a fact of an existing
// predicate, new arities of an existing functor (below, between and above
// the original's) and new functors (one already a constant of the original,
// one never seen): none of it may show in the original's predicates or
// proofs.
func TestCloneIndependence(t *testing.T) {
	kb := kbFrom(t, `f(a). f(a, h, c).`)
	before := kb.Predicates()
	clone := kb.Clone()
	for _, fact := range []string{"f(b)", "f", "f(a, b)", "f(a, b, c, d)", "h(x)", "clone_only_functor(x)"} {
		clone.AddFact(logic.MustParseTerm(fact))
	}
	m1 := NewMachine(kb, DefaultBudget)
	m2 := NewMachine(clone, DefaultBudget)
	for _, g := range []string{"f(b)", "f", "f(a, b)", "f(a, b, c, d)", "h(x)", "clone_only_functor(x)"} {
		if m1.ProveAtom(logic.MustParseTerm(g)) {
			t.Errorf("clone mutation leaked into original: %s", g)
		}
		if !m2.ProveAtom(logic.MustParseTerm(g)) {
			t.Errorf("clone lost its own fact %s", g)
		}
	}
	for _, g := range []string{"f(a)", "f(a, h, c)"} {
		if !m1.ProveAtom(logic.MustParseTerm(g)) || !m2.ProveAtom(logic.MustParseTerm(g)) {
			t.Errorf("%s lost", g)
		}
	}
	if after := kb.Predicates(); fmt.Sprint(after) != fmt.Sprint(before) || kb.Size() != 2 {
		t.Errorf("original's predicates %v (%d clauses), want %v (2)", after, kb.Size(), before)
	}
	if n := len(clone.Predicates()); n != 7 {
		t.Errorf("clone has %d predicates, want 7", n)
	}
}

// TestPredicatesDeterministicOrder: Predicates lists each predicate once,
// in ascending (symbol, arity) order, whatever order the clauses came in;
// AllClauses groups clauses in that order.
func TestPredicatesDeterministicOrder(t *testing.T) {
	kb := kbFrom(t, `b(1). a(1). c(1, 2). a(1, 2). b(1, 2, 3). b. b(2).`)
	p1 := kb.Predicates()
	p2 := kb.Predicates()
	if len(p1) != 6 {
		t.Fatalf("predicates: %v", p1)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("Predicates order not deterministic")
		}
		if i > 0 && (p1[i-1].Sym > p1[i].Sym || p1[i-1].Sym == p1[i].Sym && p1[i-1].Arity >= p1[i].Arity) {
			t.Errorf("Predicates: %v before %v", p1[i-1], p1[i])
		}
	}
	var heads []logic.PredKey
	for _, c := range kb.AllClauses() {
		if k := c.Head.Pred(); len(heads) == 0 || heads[len(heads)-1] != k {
			heads = append(heads, k)
		}
	}
	if fmt.Sprint(heads) != fmt.Sprint(p1) {
		t.Errorf("AllClauses groups %v, want %v", heads, p1)
	}
}

func TestNumericCrossKindUnify(t *testing.T) {
	kb := kbFrom(t, `weight(w1, 4.0). weight(w2, 5).`)
	m := NewMachine(kb, DefaultBudget)
	if !m.ProveAtom(logic.MustParseTerm("weight(w1, 4)")) {
		t.Fatal("int query should match float fact")
	}
	if !m.ProveAtom(logic.MustParseTerm("weight(w2, 5.0)")) {
		t.Fatal("float query should match int fact")
	}
}

// Property: every fact added to a KB is provable, and ground atoms differing
// in any argument are not (over a constant universe with unique facts).
func TestQuickFactsProvable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kb := NewKB()
		added := make(map[[2]int]bool)
		for i := 0; i < 30; i++ {
			k := [2]int{rng.Intn(8), rng.Intn(8)}
			added[k] = true
			kb.AddFact(logic.Comp("q", logic.IntTerm(int64(k[0])), logic.IntTerm(int64(k[1]))))
		}
		m := NewMachine(kb, DefaultBudget)
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				goal := logic.Comp("q", logic.IntTerm(int64(a)), logic.IntTerm(int64(b)))
				if m.ProveAtom(goal) != added[[2]int{a, b}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: solution count of an indexed query equals the fact multiplicity.
func TestQuickSolutionCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kb := NewKB()
		counts := make(map[int]int)
		for i := 0; i < 50; i++ {
			a := rng.Intn(6)
			counts[a]++
			kb.AddFact(logic.Comp("s", logic.A(fmt.Sprintf("k%d", a)), logic.IntTerm(int64(i))))
		}
		m := NewMachine(kb, DefaultBudget)
		keys := make([]int, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, a := range keys {
			got := 0
			goal := logic.Comp("s", logic.A(fmt.Sprintf("k%d", a)), logic.V(0))
			m.Solve([]logic.Literal{logic.Lit(goal)}, 1, func(*logic.Bindings) bool {
				got++
				return true
			})
			if got != counts[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestAddFactsMatchesAddFact adds one sequence of facts — to predicates the
// KB already holds and to new ones, a symbol at two arities, facts with
// variables — once through AddFacts and once through AddFact one by one,
// and requires the same clauses in the same order, the same size and
// variable counts, and a recompile after AddFacts on a compiled KB.
func TestAddFactsMatchesAddFact(t *testing.T) {
	base := `p(a, b). r(X) :- p(X, b).`
	heads := []logic.Term{
		logic.MustParseTerm("p(c, d)"),
		logic.MustParseTerm("q(1)"),
		logic.MustParseTerm("p(e)"),
		logic.MustParseTerm("q(2.5)"),
		logic.MustParseTerm("p(X, X)"),
		logic.MustParseTerm("s"),
		logic.MustParseTerm("p(f, g)"),
	}
	one, all := NewKB(), NewKB()
	for _, kb := range []*KB{one, all} {
		if err := kb.AddSource(base); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range heads {
		one.AddFact(h)
	}
	m := NewMachine(all, DefaultBudget)
	if !m.ProveAtom(logic.MustParseTerm("r(a)")) {
		t.Fatal("r(a) not proved before AddFacts")
	}
	all.AddFacts(heads)
	if !m.ProveAtom(logic.MustParseTerm("p(X, X)")) || !m.ProveAtom(logic.MustParseTerm("p(e)")) {
		t.Error("a fact AddFacts added is not proved")
	}
	if n := all.Compilations(); n != 2 {
		t.Errorf("%d compilations, want 2 (AddFacts must invalidate the program)", n)
	}
	if one.Size() != all.Size() {
		t.Errorf("size %d, want %d", all.Size(), one.Size())
	}
	a, b := one.AllClauses(), all.AllClauses()
	if len(a) != len(b) {
		t.Fatalf("%d clauses, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("clause %d: %s, want %s", i, b[i], a[i])
		}
	}
	for _, key := range one.Predicates() {
		pa, pb := one.preds.get(key.Sym, key.Arity), all.preds.get(key.Sym, key.Arity)
		if pb == nil || len(pa.facts) != len(pb.facts) {
			t.Fatalf("%s: facts differ", key)
		}
		for i := range pa.facts {
			if pa.facts[i].numVars != pb.facts[i].numVars {
				t.Errorf("%s fact %d: %d variables, want %d", key, i, pb.facts[i].numVars, pa.facts[i].numVars)
			}
		}
	}
}
