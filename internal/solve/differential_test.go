package solve

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/logic"
)

// This file holds the oracle of every prover test (oracle_test.go): a
// reference prover that replicates the seed engine's semantics — a
// persistent linked goal list, OffsetVars clause renaming, per-goal shallow
// resolution and candidate selection by argument indexes of its own — and
// shares nothing with the production engine but the KB's clause store and
// the builtins. On any program and goal the engine must produce its
// solutions in its order, charge its inferences and hit its budget cutoffs.
// Besides, the generators of random programs and questions.

// argIndex indexes fact positions by the constant at one argument position.
// Ints and floats unify numerically, so they share the numeric map.
type argIndex struct {
	byAtom    map[logic.Symbol][]int32
	byNum     map[float64][]int32
	unindexed []int32 // fact positions whose argument is not a constant
}

func (ix *argIndex) add(t logic.Term, pos int32) {
	switch t.Kind {
	case logic.Atom:
		if ix.byAtom == nil {
			ix.byAtom = make(map[logic.Symbol][]int32)
		}
		ix.byAtom[t.Sym] = append(ix.byAtom[t.Sym], pos)
	case logic.Int, logic.Float:
		if ix.byNum == nil {
			ix.byNum = make(map[float64][]int32)
		}
		ix.byNum[t.Num] = append(ix.byNum[t.Num], pos)
	default:
		ix.unindexed = append(ix.unindexed, pos)
	}
}

// bucket returns the candidate positions for a dereferenced goal argument
// and whether the argument was a constant usable for indexing.
func (ix *argIndex) bucket(t logic.Term) ([]int32, bool) {
	switch t.Kind {
	case logic.Atom:
		return ix.byAtom[t.Sym], true
	case logic.Int, logic.Float:
		return ix.byNum[t.Num], true
	}
	return nil, false
}

// seedIndex is the seed engine's candidate selection over one version of a
// KB: every predicate's facts indexed by their first and second argument.
// It holds no reference to the KB, so that seedIndexes can drop it with the
// KB.
type seedIndex struct {
	size int // the KB's Size when it was built
	args map[*pred]*[2]argIndex
}

// seedIndexes holds the seed index of every live KB, shared by all of the
// reference machines of the parallel tests and rebuilt when its KB grows.
var seedIndexes sync.Map // weak.Pointer[KB] → *seedIndex

func seedIndexFor(kb *KB) *seedIndex {
	key := weak.Make(kb)
	if v, ok := seedIndexes.Load(key); ok && v.(*seedIndex).size == kb.Size() {
		return v.(*seedIndex)
	}
	ix := &seedIndex{size: kb.Size(), args: make(map[*pred]*[2]argIndex, kb.preds.len())}
	for _, p := range kb.preds.all() {
		var idx [2]argIndex
		for i := range p.facts {
			args := p.facts[i].clause.Head.Args
			for pos := range min(2, len(args)) {
				idx[pos].add(args[pos], int32(i))
			}
		}
		ix.args[p] = &idx
	}
	if _, had := seedIndexes.Swap(key, ix); !had {
		runtime.AddCleanup(kb, func(k weak.Pointer[KB]) { seedIndexes.Delete(k) }, key)
	}
	return ix
}

// lookup visits the candidate clauses of p for goal under bs: a subset of
// the facts selected by first- or second-argument index when the
// corresponding goal argument dereferences to a constant (whichever bucket
// is smaller), then all rules. The visit order is deterministic: indexed
// facts merge with the unindexed ones in insertion order to keep solution
// order stable. visit gets each clause with the argument position its
// bucket proved equal, -1 for the unindexed facts and the rules.
func (ix *seedIndex) lookup(p *pred, bs *logic.Bindings, goal logic.Term, visit func(sc *storedClause, skip int) bool) {
	if p == nil {
		return
	}
	if len(goal.Args) > 0 {
		if pos, idx, un, ok := ix.selectIndex(p, bs, goal); ok {
			p.scanMerged(idx, un, pos, visit)
			return
		}
	}
	for i := range p.facts {
		if !visit(&p.facts[i], -1) {
			return
		}
	}
	p.scanRules(visit)
}

// selectIndex picks the cheapest applicable fact index for the goal: the
// first- or second-argument bucket with the fewest candidates (bucket plus
// the unindexed facts that must always be scanned alongside it); a second
// probe is skipped when the first bucket is down to at most one candidate.
func (ix *seedIndex) selectIndex(p *pred, bs *logic.Bindings, goal logic.Term) (pos int, idx, un []int32, ok bool) {
	args := ix.args[p]
	best := 0
	if i1, kok := args[0].bucket(bs.Walk(goal.Args[0])); kok {
		idx, un, ok = i1, args[0].unindexed, true
		best = len(idx) + len(un)
	}
	if len(goal.Args) > 1 && (!ok || best > 1) {
		if i2, kok := args[1].bucket(bs.Walk(goal.Args[1])); kok {
			if u2 := args[1].unindexed; !ok || len(i2)+len(u2) < best {
				pos, idx, un, ok = 1, i2, u2, true
			}
		}
	}
	return pos, idx, un, ok
}

// scanMerged visits the union of an index bucket at argument pos and the
// unindexed positions in insertion order, then every rule.
func (p *pred) scanMerged(idx, un []int32, pos int, visit func(*storedClause, int) bool) {
	i, j := 0, 0
	for i < len(idx) || j < len(un) {
		if j >= len(un) || (i < len(idx) && idx[i] < un[j]) {
			if !visit(&p.facts[idx[i]], pos) {
				return
			}
			i++
		} else {
			if !visit(&p.facts[un[j]], -1) {
				return
			}
			j++
		}
	}
	p.scanRules(visit)
}

func (p *pred) scanRules(visit func(*storedClause, int) bool) {
	for i := range p.rules {
		if !visit(&p.rules[i], -1) {
			return
		}
	}
}

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
	index  *seedIndex
	bs     *logic.Bindings
	budget Budget

	nextVar   int
	queryInf  int64
	totalInf  int64
	budgetHit bool
	cutoffs   int64
}

func newRefMachine(kb *KB, budget Budget) *refMachine {
	return &refMachine{kb: kb, index: seedIndexFor(kb), bs: logic.NewBindings(64), budget: budget.withDefaults()}
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
	if m.index.size != m.kb.Size() {
		m.index = seedIndexFor(m.kb)
	}
	m.index.lookup(m.kb.predFor(goal), m.bs, goal, func(sc *storedClause, _ int) bool {
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
	if use.Replayed == 0 || use.Alone == 0 || use.Packed == 0 {
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

// listEntry is one candidate of a list as the two sides see it: the stored
// clause and the argument position its selection proved equal (-1: none).
type listEntry struct {
	src  *logic.Clause
	skip int
}

// switchesMatchSeedIndex holds kb's compiled switches to its seed index,
// list by list: for every predicate, the full list; and at argument 1 and 2
// — also past the predicate's arity — the miss list, and the list selected
// by every constant a fact holds there, by its numeric twin of the other
// kind (Int 1 for Float 1.0, -0.0 for 0.0), by NaN and by a constant no fact
// holds. Each must visit the seed index's merge of that constant's bucket,
// clause for clause and skip for skip, in its order.
func switchesMatchSeedIndex(t testing.TB, name string, kb *KB) {
	t.Helper()
	ix, pr := seedIndexFor(kb), kb.program()
	absent := []logic.Term{logic.A("no such constant"), logic.FloatTerm(-12345.5), logic.FloatTerm(math.NaN())}
	for _, key := range kb.Predicates() {
		p := kb.preds.get(key.Sym, key.Arity)
		goal := logic.Term{Kind: logic.Atom, Sym: key.Sym}
		if key.Arity > 0 {
			goal = logic.Term{Kind: logic.Compound, Sym: key.Sym, Args: make([]logic.Term, key.Arity)}
		}
		cp := pr.predFor(goal)
		var all []listEntry
		for i := range p.facts {
			all = append(all, listEntry{&p.facts[i].clause, -1})
		}
		p.scanRules(func(sc *storedClause, skip int) bool {
			all = append(all, listEntry{&sc.clause, skip})
			return true
		})
		sameList(t, fmt.Sprintf("%s: %v's full list", name, key), cp.all, -1, all)
		for pos, sw := range []*vmSwitch{&cp.arg1, &cp.arg2} {
			args := &ix.args[p][pos]
			want := func(c logic.Term) []listEntry {
				bucket, _ := args.bucket(c)
				var out []listEntry
				p.scanMerged(bucket, args.unindexed, pos, func(sc *storedClause, skip int) bool {
					out = append(out, listEntry{&sc.clause, skip})
					return true
				})
				return out
			}
			sameList(t, fmt.Sprintf("%s: %v's miss list at argument %d", name, key, pos+1), sw.miss, pos, want(absent[0]))
			consts := absent
			for i := range p.facts {
				if h := p.facts[i].clause.Head; pos < len(h.Args) {
					consts = append(consts, numericTwins(h.Args[pos])...)
				}
			}
			type constKey struct {
				kind logic.Kind
				sym  logic.Symbol
				num  uint64
			}
			seen := map[constKey]bool{}
			for _, c := range consts {
				k := constKey{c.Kind, c.Sym, math.Float64bits(c.Num)}
				if seen[k] {
					continue
				}
				seen[k] = true
				if l, ok := sw.lookup(&c); ok { // a variable or a compound selects no list
					sameList(t, fmt.Sprintf("%s: %v at argument %d = %v", name, key, pos+1, c), l, pos, want(c))
				}
			}
		}
	}
}

// numericTwins is c and, for a number, the equal constants of the other
// kind or sign: the keys a head matching compares equal.
func numericTwins(c logic.Term) []logic.Term {
	out := []logic.Term{c}
	switch {
	case c.Kind == logic.Int:
		out = append(out, logic.FloatTerm(c.Num))
	case c.Kind == logic.Float && c.Num == math.Trunc(c.Num):
		out = append(out, logic.IntTerm(int64(c.Num)))
	}
	if (c.Kind == logic.Int || c.Kind == logic.Float) && c.Num == 0 {
		out = append(out, logic.FloatTerm(math.Copysign(0, -1)), logic.FloatTerm(0))
	}
	return out
}

func sameList(t testing.TB, what string, l *candList, skip int, want []listEntry) {
	t.Helper()
	got := make([]listEntry, len(l.cands))
	facts := 0
	for i, c := range l.cands {
		got[i] = listEntry{c.cc.src, int(c.skip)}
		if i < l.nFacts && !c.cc.src.IsFact() {
			t.Errorf("%s: candidate %d of the %d facts is a rule", what, i, l.nFacts)
		}
	}
	for _, e := range want {
		if e.src.IsFact() {
			facts++
		}
	}
	if !slices.Equal(got, want) || l.nFacts != facts || int(l.skip) != skip {
		t.Errorf("%s: compiled %d facts, skip %d: %s; the seed index %d facts, skip %d: %s", what, l.nFacts, l.skip, listString(got), facts, skip, listString(want))
	}
}

func listString(l []listEntry) string {
	var b strings.Builder
	for i, e := range l {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%v@%d", e.src, e.skip)
	}
	return b.String()
}

// switchKB is a program of the index's corner cases: Int 1 beside Float 1.0
// and 0.0 beside -0.0, a NaN fact, predicates of arity 0 (three rules, a
// list long enough for keys), 1 and 3, one functor at two arities, and
// variable and compound arguments at both indexed positions.
func switchKB(t *testing.T) *KB {
	kb := kbFrom(t, `
		go. go :- p(a). go :- p(1). go :- r(a).
		p(1). p(a). p(1.0). p(X). p(0.0). p(f(a)). p(-0.0). p(b). p(1).
		p(X) :- r(X).
		t(a, 1, x). t(b, 2.5, Y). t(X, 1, z). t(f(b), 1.0, a). t(a, X, X). t(a, g(Y), c).
		t(X, b, c) :- r(X).
		r(a). r(a, b). r(b, a). r(1, 0.0). r(X, -0.0).
	`)
	kb.AddFact(logic.Comp("p", logic.FloatTerm(math.NaN())))
	kb.AddFact(logic.Comp("t", logic.FloatTerm(math.NaN()), logic.FloatTerm(math.NaN()), logic.A("n")))
	return kb
}
