package solve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
)

// This file holds the oracle of every prover test (oracle_test.go): a
// reference prover that replicates the seed engine's semantics — a
// persistent linked goal list, OffsetVars clause renaming and per-goal
// shallow resolution — and shares nothing with either production engine but
// the KB's candidate selection. On any program and goal the engines must
// produce its solutions in its order, charge its inferences and hit its
// budget cutoffs. Besides, the generators of random programs and questions.

// refGoals is the reference engine's persistent goal stack.
type refGoals struct {
	lit   logic.Literal
	depth int
	next  *refGoals
}

func refPush(body []logic.Literal, depth int, rest *refGoals) *refGoals {
	for i := len(body) - 1; i >= 0; i-- {
		rest = &refGoals{lit: body[i], depth: depth, next: rest}
	}
	return rest
}

// refMachine is the reference SLD engine (heap-allocating, copy-renaming).
type refMachine struct {
	kb     *KB
	bs     *logic.Bindings
	budget Budget

	nextVar   int
	queryInf  int64
	totalInf  int64
	budgetHit bool
	cutoffs   int64
}

func newRefMachine(kb *KB, budget Budget) *refMachine {
	return &refMachine{kb: kb, bs: logic.NewBindings(64), budget: budget.withDefaults()}
}

func (m *refMachine) charge() bool {
	m.queryInf++
	if m.queryInf >= m.budget.MaxInferences {
		m.budgetHit = true
		return false
	}
	return true
}

func (m *refMachine) solveQuery(goals []logic.Literal, nVars int, yield func(*logic.Bindings) bool) {
	m.bs.Undo(0)
	m.nextVar = nVars
	m.queryInf = 0
	m.budgetHit = false
	m.solve(refPush(goals, 0, nil), func() bool { return yield(m.bs) })
	m.totalInf += m.queryInf
	if m.budgetHit {
		m.cutoffs++
	}
}

// coversExample is the reference form of Machine.CoversExample: the head
// unified as a tree, the body proved by the reference engine.
func (m *refMachine) coversExample(rule *logic.Clause, example logic.Term) bool {
	m.bs.Undo(0)
	m.nextVar = rule.NumVars()
	m.queryInf = 0
	m.budgetHit = false
	found := false
	if m.bs.Unify(rule.Head, example) {
		m.solve(refPush(rule.Body, 0, nil), func() bool {
			found = true
			return false
		})
	}
	m.totalInf += m.queryInf
	if m.budgetHit {
		m.cutoffs++
	}
	return found
}

// run is coversExample as a coverRun: the answer, the inferences charged
// and whether the budget cut the query off.
func (m *refMachine) run(rule *logic.Clause, example logic.Term) coverRun {
	inf, cut := m.totalInf, m.cutoffs
	ok := m.coversExample(rule, example)
	return coverRun{ok, m.totalInf - inf, m.cutoffs - cut}
}

// enumerate is the reference form of enumerate (oracle_test.go).
func (m *refMachine) enumerate(goals []logic.Literal) enumeration {
	nv := numVars(goals)
	inf, cut := m.totalInf, m.cutoffs
	var sols []string
	m.solveQuery(goals, nv, func(bs *logic.Bindings) bool {
		sols = append(sols, solutionString(bs, nv))
		return len(sols) < 200
	})
	return enumeration{strings.Join(sols, "; "), coverRun{len(sols) > 0, m.totalInf - inf, m.cutoffs - cut}}
}

func (m *refMachine) solve(goals *refGoals, k func() bool) bool {
	if goals == nil {
		return k()
	}
	g := goals.lit
	rest := goals.next
	if !m.charge() {
		return true
	}
	if g.Neg {
		proved := false
		m.solve(&refGoals{lit: logic.Lit(g.Atom), depth: goals.depth + 1}, func() bool {
			proved = true
			return false
		})
		if proved {
			return true
		}
		return m.solve(rest, k)
	}
	goal := m.resolveShallow(g.Atom)
	if fn := builtinFor(goal); fn != nil {
		mark := m.bs.Mark()
		ok := fn2ref(fn)(m, goal)
		if ok {
			if !m.solve(rest, k) {
				return false
			}
		}
		m.bs.Undo(mark)
		return true
	}
	if goals.depth >= m.budget.MaxDepth {
		m.budgetHit = true
		return true
	}
	cont := true
	m.kb.lookup(m.bs, goal, 0, func(sc *storedClause, _ int) bool {
		if !m.charge() {
			cont = true
			return false
		}
		base := m.nextVar
		rc := sc.clause
		if sc.numVars > 0 {
			rc = sc.clause.OffsetVars(base)
		}
		m.nextVar += sc.numVars
		mark := m.bs.Mark()
		if m.bs.Unify(goal, rc.Head) {
			sub := refPush(rc.Body, goals.depth+1, rest)
			if !m.solve(sub, k) {
				cont = false
				m.bs.Undo(mark)
				m.nextVar = base
				return false
			}
		}
		m.bs.Undo(mark)
		m.nextVar = base
		return true
	})
	return cont
}

func (m *refMachine) resolveShallow(t logic.Term) logic.Term {
	t = m.bs.Walk(t)
	if t.Kind != logic.Compound {
		return t
	}
	args := make([]logic.Term, len(t.Args))
	for i := range t.Args {
		args[i] = m.bs.Walk(t.Args[i])
	}
	return logic.Term{Kind: logic.Compound, Sym: t.Sym, Args: args}
}

// fn2ref adapts a builtin to the reference machine: builtins only touch the
// bindings store and arithmetic, so a shim Machine around the same store
// evaluates them identically.
func fn2ref(fn builtinFn) func(*refMachine, logic.Term) bool {
	return func(m *refMachine, goal logic.Term) bool {
		shim := &Machine{bs: m.bs, budget: m.budget}
		return fn(shim, goal)
	}
}

// genProgram builds a random definite program with ground facts, var-headed
// facts, chain rules, recursion, negation, rules that call other rules on
// ground arguments, and one arity-4 predicate whose first-argument buckets
// are long enough to carry filter keys (genWide).
func genProgram(rng *rand.Rand) *KB {
	kb := NewKB()
	consts := []string{"a", "b", "c", "d", "e", "f"}
	randConst := func() logic.Term {
		if rng.Intn(5) == 0 {
			return logic.IntTerm(int64(rng.Intn(4)))
		}
		return logic.A(consts[rng.Intn(len(consts))])
	}
	// Ground facts over p/2, q/2, r/1.
	for i := 0; i < 25+rng.Intn(25); i++ {
		kb.AddFact(logic.Comp("p", randConst(), randConst()))
	}
	for i := 0; i < 15+rng.Intn(15); i++ {
		kb.AddFact(logic.Comp("q", randConst(), randConst()))
	}
	for i := 0; i < 8; i++ {
		kb.AddFact(logic.Comp("r", randConst()))
	}
	// A few facts with variable or compound arguments (unindexed paths).
	if rng.Intn(2) == 0 {
		kb.Add(logic.MustParseClause("p(X, wild)."))
	}
	if rng.Intn(2) == 0 {
		kb.AddFact(logic.Comp("q", logic.Comp("f", randConst()), randConst()))
	}
	// Chain rules: s(X,Y) :- p(X,Z), q(Z,Y).  t(X) :- s(X,Y), r(Y).
	kb.Add(logic.MustParseClause("s(X, Y) :- p(X, Z), q(Z, Y)."))
	kb.Add(logic.MustParseClause("t(X) :- s(X, Y), r(Y)."))
	// Recursion with a base case.
	kb.Add(logic.MustParseClause("reach(X, Y) :- p(X, Y)."))
	kb.Add(logic.MustParseClause("reach(X, Y) :- p(X, Z), reach(Z, Y)."))
	// Negation and builtins.
	kb.Add(logic.MustParseClause("lone(X) :- r(X), \\+p(X, X)."))
	kb.Add(logic.MustParseClause("gt(X, Y) :- p(X, Y), X \\= Y."))
	// Ground calls into rules, which the memo records and replays: v(X)
	// calls s/2 — several solutions a call — on a runtime-ground argument
	// pair and t/1 on a statically ground one; rc(X) is reach(X, X), which
	// recurses through every cycle of p that X lies on.
	kb.Add(logic.MustParseClause("v(X) :- r(X), s(X, a), t(b)."))
	kb.Add(logic.MustParseClause("rc(X) :- reach(X, X)."))
	genWide(rng, kb, randConst)
	return kb
}

// genWide adds w/4: some thirty facts over two first arguments, so either
// bucket is a keyed candidate list, whose other columns mix everything a key
// has to tell apart or let through — Int 1 beside Float 1.0 beside the atom
// one, the genGoal constants, a compound, a variable (once shared between
// two columns) — plus rules with constant head arguments, which sit at the
// tail of every list with their first argument unproved.
func genWide(rng *rand.Rand, kb *KB, randConst func() logic.Term) {
	col := func() logic.Term {
		switch rng.Intn(10) {
		case 0:
			return logic.IntTerm(1)
		case 1:
			return logic.FloatTerm(1.0)
		case 2:
			return logic.A("one")
		case 3:
			return logic.Comp("f", randConst())
		case 4:
			return logic.V(rng.Intn(2))
		}
		return randConst()
	}
	for i := 0; i < 24+rng.Intn(16); i++ {
		kb.Add(logic.Clause{Head: logic.Comp("w", logic.A([]string{"a", "b"}[rng.Intn(2)]), col(), col(), col())})
	}
	kb.Add(logic.MustParseClause("w(a, X, 1, Y) :- p(X, Y)."))
	kb.Add(logic.MustParseClause("w(X, b, Y, Y) :- r(X), q(X, Y)."))
}

// genGoal builds a random query (conjunction) over the program's predicates.
func genGoal(rng *rand.Rand) ([]logic.Literal, int) {
	preds := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 2}, {"r", 1}, {"s", 2}, {"t", 1}, {"reach", 2}, {"lone", 1}, {"gt", 2}, {"w", 4}, {"w", 4}}
	consts := []string{"a", "b", "c", "d", "e", "f", "zz"}
	nVars := 0
	var lits []logic.Literal
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		pd := preds[rng.Intn(len(preds))]
		args := make([]logic.Term, pd.arity)
		for j := range args {
			switch rng.Intn(3) {
			case 0:
				args[j] = logic.V(rng.Intn(3)) // shared variables across literals
				if args[j].VarIndex() >= nVars {
					nVars = args[j].VarIndex() + 1
				}
			case 1:
				args[j] = logic.A(consts[rng.Intn(len(consts))])
			default:
				args[j] = logic.IntTerm(int64(rng.Intn(4)))
			}
		}
		lit := logic.Lit(logic.Comp(pd.name, args...))
		if rng.Intn(8) == 0 && i > 0 {
			lit.Neg = true
		}
		lits = append(lits, lit)
	}
	return lits, nVars
}

// genRule builds a random candidate rule for h: a head drawn from the shapes
// a query head can take — distinct variables, a repeated variable, compound
// and constant arguments, a variable first met inside a compound, zero arity
// — over a genGoal body (sharing the head's variables) that is sometimes
// empty and sometimes ends in a builtin, a predicate the KB does not have or
// a call into v/1 or rc/1 on a head variable — ground once the example is
// matched, in most head shapes.
func genRule(rng *rand.Rand) logic.Clause {
	x, y := logic.V(0), logic.V(1)
	heads := []logic.Term{
		logic.Comp("h", x, y),
		logic.Comp("h", x, x),
		logic.Comp("h", logic.Comp("f", x), y),
		logic.Comp("h", logic.A("a"), x),
		logic.Comp("h", logic.IntTerm(2), x),
		logic.Comp("h", x, logic.Comp("g", x, y)),
		logic.Comp("h", logic.Comp("f", x), x),
		logic.A("h"),
	}
	rule := logic.Clause{Head: heads[rng.Intn(len(heads))]}
	if rng.Intn(6) == 0 {
		return rule
	}
	rule.Body, _ = genGoal(rng)
	switch rng.Intn(6) {
	case 0:
		rule.Body = append(rule.Body, logic.Lit(logic.Comp("\\=", x, y)))
	case 1:
		rule.Body = append(rule.Body, logic.Lit(logic.Comp("nosuch", x)))
	case 2:
		rule.Body = append(rule.Body, logic.Lit(logic.Comp("v", x)))
	case 3:
		rule.Body = append(rule.Body, logic.Lit(logic.Comp("rc", y)))
	}
	return rule
}

// genExample builds a ground example for a genRule head: half the time an
// instance of the head itself, otherwise an independent draw that is now and
// then of the wrong arity, functor or kind.
func genExample(rng *rand.Rand, head logic.Term) logic.Term {
	consts := []string{"a", "b", "c", "d", "e", "f"}
	arg := func() logic.Term {
		c := logic.A(consts[rng.Intn(len(consts))])
		switch rng.Intn(6) {
		case 0:
			return logic.IntTerm(int64(rng.Intn(4)))
		case 1:
			return logic.Comp("f", c)
		case 2:
			return logic.Comp("g", c, logic.A(consts[rng.Intn(len(consts))]))
		}
		return c
	}
	if rng.Intn(2) == 0 {
		bs := logic.NewBindings(2)
		bs.Bind(0, arg())
		bs.Bind(1, arg())
		return bs.Resolve(head)
	}
	switch rng.Intn(12) {
	case 0:
		return logic.Comp("h", arg())
	case 1:
		return logic.Comp("k", arg(), arg())
	case 2:
		return logic.A("h")
	}
	return logic.Comp("h", arg(), arg())
}

func solutionString(bs *logic.Bindings, nVars int) string {
	var b strings.Builder
	for v := 0; v < nVars; v++ {
		if v > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(bs.Resolve(logic.V(v)).String())
	}
	return b.String()
}

// TestDifferentialGoalStackVsReference asks the property of genProgram
// programs: conjunctions enumerated, random rules on random examples and
// random fans run as packs under the suite's budget, and more fans under a
// drawn tight one where most proofs are cut off somewhere (genOracle).
func TestDifferentialGoalStackVsReference(t *testing.T) {
	t.Parallel()
	var use fastUse
	for seed := int64(0); seed < 40; seed++ {
		use.Add(genOracle(t, seed, 12, 6, 25))
	}
	if !envNoVM && (use.Replayed == 0 || use.Alone == 0 || use.Packed == 0) {
		t.Errorf("the fast paths are not exercised: %+v", use)
	}
}

// TestSecondArgIndexMatchesScan checks that second-argument indexing and
// index selection return exactly the solutions of a full scan.
func TestSecondArgIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type row struct{ a, b, c int }
	var rows []row
	kb := NewKB()
	for i := 0; i < 400; i++ {
		r := row{rng.Intn(10), rng.Intn(10), rng.Intn(5)}
		rows = append(rows, r)
		kb.AddFact(logic.Comp("e",
			logic.A(fmt.Sprintf("x%d", r.a)),
			logic.A(fmt.Sprintf("y%d", r.b)),
			logic.IntTerm(int64(r.c))))
	}
	// A couple of var-argument facts keep the unindexed merge paths honest.
	kb.Add(logic.MustParseClause("e(x0, Y, 99)."))
	kb.Add(logic.MustParseClause("e(X, y0, 98)."))
	m := NewMachine(kb, DefaultBudget)

	count := func(goal logic.Term, nv int) int {
		n := 0
		m.Solve([]logic.Literal{logic.Lit(goal)}, nv, func(*logic.Bindings) bool {
			n++
			return true
		})
		return n
	}
	for b := 0; b < 10; b++ {
		want := 0
		for _, r := range rows {
			if r.b == b {
				want++
			}
		}
		want++ // e(x0, Y, 99) has a variable second arg and matches any y
		if b == 0 {
			want++ // e(X, y0, 98)
		}
		goal := logic.Comp("e", logic.V(0), logic.A(fmt.Sprintf("y%d", b)), logic.V(1))
		if got := count(goal, 2); got != want {
			t.Fatalf("second-arg y%d: got %d solutions, want %d", b, got, want)
		}
	}
	// Both args bound: the engine picks the smaller bucket; results must
	// match a straight count either way.
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			want := 0
			for _, r := range rows {
				if r.a == a && r.b == b {
					want++
				}
			}
			if a == 0 {
				want++ // e(x0, Y, 99)
			}
			if b == 0 {
				want++ // e(X, y0, 98)
			}
			goal := logic.Comp("e",
				logic.A(fmt.Sprintf("x%d", a)),
				logic.A(fmt.Sprintf("y%d", b)),
				logic.V(0))
			if got := count(goal, 1); got != want {
				t.Fatalf("x%d,y%d: got %d solutions, want %d", a, b, got, want)
			}
		}
	}
}
