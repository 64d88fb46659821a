package solve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
)

// This file pits the goal-stack engine against a reference prover that
// replicates the pre-rewrite semantics: a persistent linked goal list,
// OffsetVars clause renaming and per-goal shallow resolution. Both engines
// share the KB's candidate selection, so on any program and goal they must
// produce the same solutions in the same order, charge the same number of
// inferences and hit the same budget cutoffs.

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

// checkQueriesAgree runs random rules over random examples three ways — the
// seed reference, an interpreter-pinned machine and a default machine, each
// of the two holding one Query across all the rule's examples — and requires
// the same answer, the same inferences charged and the same cutoff on every
// single query. Its pack leg (checkPacksAgree, pack_test.go) then does the
// same for random fans run as QueryPacks, under the caller's budget and under
// a drawn tight one where most proofs are cut off somewhere. It reports how
// much the compiled machines used the fast paths.
func checkQueriesAgree(t *testing.T, rng *rand.Rand, kb *KB, budget Budget, rules int) fastUse {
	t.Helper()
	ref := newRefMachine(kb, budget)
	interp := NewMachine(kb, budget)
	interp.SetNoVM(true)
	vm := NewMachine(kb, budget)
	for r := 0; r < rules; r++ {
		rule := genRule(rng)
		var qi, qv Query
		interp.CompileQuery(&qi, &rule)
		vm.CompileQuery(&qv, &rule)
		for e := 0; e < 12; e++ {
			ex := genExample(rng, rule.Head)
			refInf, refCut := ref.totalInf, ref.cutoffs
			intInf, intCut := interp.TotalInferences(), interp.CutoffQueries()
			vmInf, vmCut := vm.TotalInferences(), vm.CutoffQueries()
			want := ref.coversExample(&rule, ex)
			gotI := interp.CoversQuery(&qi, ex)
			gotV := vm.CoversQuery(&qv, ex)
			if gotI != want || gotV != want {
				t.Fatalf("%s on %s: reference %v, interpreter query %v, compiled query %v", rule.String(), ex, want, gotI, gotV)
			}
			refInf, refCut = ref.totalInf-refInf, ref.cutoffs-refCut
			if d := interp.TotalInferences() - intInf; d != refInf {
				t.Fatalf("%s on %s: interpreter query charged %d, reference %d", rule.String(), ex, d, refInf)
			}
			if d := vm.TotalInferences() - vmInf; d != refInf {
				t.Fatalf("%s on %s: compiled query charged %d, reference %d", rule.String(), ex, d, refInf)
			}
			if d := interp.CutoffQueries() - intCut; d != refCut {
				t.Fatalf("%s on %s: interpreter query cutoffs %d, reference %d", rule.String(), ex, d, refCut)
			}
			if d := vm.CutoffQueries() - vmCut; d != refCut {
				t.Fatalf("%s on %s: compiled query cutoffs %d, reference %d", rule.String(), ex, d, refCut)
			}
		}
	}
	tight := Budget{
		MaxDepth:      []int{1, 2, 3, 12}[rng.Intn(4)],
		MaxInferences: []int64{3, 5, 8, 13, 21, 40, 80, 200}[rng.Intn(8)],
	}
	use := fastUse{vm.ReplayedInferences(), vm.reproofs}
	use.add(checkPacksAgree(t, rng, kb, budget, rules/2))
	use.add(checkPacksAgree(t, rng, kb, tight, rules/2))
	return use
}

// fastUse is what a compiled machine replayed from the ground-call memo and
// how many exact re-proofs budget events sent it to.
type fastUse struct{ replayed, reproofs int64 }

func (u *fastUse) add(v fastUse) {
	u.replayed, u.reproofs = u.replayed+v.replayed, u.reproofs+v.reproofs
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

func TestDifferentialGoalStackVsReference(t *testing.T) {
	budget := Budget{MaxDepth: 12, MaxInferences: 4000}
	var use fastUse
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kb := genProgram(rng)
		m := NewMachine(kb, budget)
		ref := newRefMachine(kb, budget)
		for q := 0; q < 25; q++ {
			goals, nVars := genGoal(rng)
			var got, want []string
			m.Solve(goals, nVars, func(bs *logic.Bindings) bool {
				got = append(got, solutionString(bs, nVars))
				return len(got) < 200
			})
			ref.solveQuery(goals, nVars, func(bs *logic.Bindings) bool {
				want = append(want, solutionString(bs, nVars))
				return len(want) < 200
			})
			goalsStr := func() string {
				parts := make([]string, len(goals))
				for i, g := range goals {
					parts[i] = g.String()
				}
				return strings.Join(parts, ", ")
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d query %d (%s): %d solutions, reference %d\n got: %v\nwant: %v",
					seed, q, goalsStr(), len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d query %d (%s): solution %d = %q, reference %q",
						seed, q, goalsStr(), i, got[i], want[i])
				}
			}
			if m.TotalInferences() != ref.totalInf {
				t.Fatalf("seed %d query %d (%s): %d total inferences, reference %d",
					seed, q, goalsStr(), m.TotalInferences(), ref.totalInf)
			}
			if m.CutoffQueries() != ref.cutoffs {
				t.Fatalf("seed %d query %d (%s): %d cutoffs, reference %d",
					seed, q, goalsStr(), m.CutoffQueries(), ref.cutoffs)
			}
		}
		use.add(checkQueriesAgree(t, rng, kb, budget, 12))
	}
	if !envNoVM && (use.replayed == 0 || use.reproofs == 0) {
		t.Errorf("held queries replayed %d inferences, %d were proved again in exact mode: the fast paths are not exercised", use.replayed, use.reproofs)
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
