package search

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/logic"
	"repro/internal/solve"
)

// renamed is c with its variables renumbered from first, in order of first
// occurrence: the same rule up to renaming, spelt differently.
func renamed(c *logic.Clause, first int) *logic.Clause {
	ren, next := map[int]int{}, first
	out := logic.Clause{Head: c.Head.RenameVars(ren, &next)}
	for _, l := range c.Body {
		out.Body = append(out.Body, logic.Literal{Neg: l.Neg, Atom: l.Atom.RenameVars(ren, &next)})
	}
	return &out
}

// twinSibling finds a child parent+lit of the bottom clause whose new
// literal holds a variable nothing else in the rule uses, and returns it with
// a twin in which only that variable is renamed: two siblings that differ at
// their last body position and are one rule up to renaming.
func twinSibling(t *testing.T, mat func(ix ...int32) *logic.Clause, parent []int32, lits int) (child, twin *logic.Clause) {
	t.Helper()
	for j := int32(0); j < int32(lits); j++ {
		c := mat(append(append([]int32(nil), parent...), j)...)
		last := len(c.Body) - 1
		elsewhere, own := map[int]bool{}, map[int]bool{}
		c.Head.CollectVars(elsewhere)
		for _, l := range c.Body[:last] {
			l.Atom.CollectVars(elsewhere)
		}
		c.Body[last].Atom.CollectVars(own)
		for v := range own {
			if elsewhere[v] {
				continue
			}
			twin := *c
			twin.Body = append([]logic.Literal(nil), c.Body...)
			twin.Body[last].Atom = renameVar(twin.Body[last].Atom, v, 99)
			return c, &twin
		}
	}
	t.Fatal("no child of the parent introduces a variable of its own")
	return nil, nil
}

func renameVar(t logic.Term, from, to int) logic.Term {
	switch t.Kind {
	case logic.Var:
		if int(t.Sym) == from {
			return logic.V(to)
		}
	case logic.Compound:
		args := make([]logic.Term, len(t.Args))
		for i := range t.Args {
			args[i] = renameVar(t.Args[i], from, to)
		}
		return logic.Term{Kind: logic.Compound, Sym: t.Sym, Args: args}
	}
	return t
}

// TestCoverageMemoAlphaDuplicates: a rule met again up to renaming — in the
// same batch on the single-rule path or in a pack group, in a later batch,
// or through CoverageFull and Coverage — is one memo entry, and is answered
// by replay: nothing is executed for it, while bits and charges stay those
// of proving it again.
func TestCoverageMemoAlphaDuplicates(t *testing.T) {
	kb, ex, bot := benchRichExamples(t, 24)
	mat := func(ix ...int32) *logic.Clause { c := bot.Materialize(ix); return &c }
	r := NewRig(t, kb, ex, solve.DefaultBudget)
	entries := func() int { return len(r.Ev.memo.ends) }

	// Single-rule path: root children never pack.
	root := mat(3)
	r.Batch("root child and its renaming", []*logic.Clause{root, renamed(root, 20), renamed(root, 7)}, nil, nil)
	if n := entries(); n != 1 {
		t.Fatalf("three spellings of one rule made %d memo entries", n)
	}

	// Pack path: the twin differs from its sibling at the one position the
	// group differs at, so both are members of one pack, sharing a slab.
	child, twin := twinSibling(t, mat, []int32{0, 2}, len(bot.Lits))
	parent := mat(0, 2)
	pPos, pNeg := r.Ev.Coverage(parent, nil, nil)
	others := []*logic.Clause{mat(0, 2, 3), mat(0, 2, 5), mat(0, 2, 7)}
	frontier := append([]*logic.Clause{child, twin}, others...)
	before := entries()
	r.Batch("siblings with a twin", frontier, repeatMask(pPos, len(frontier)), repeatMask(pNeg, len(frontier)))
	if n := entries() - before; n > 4 {
		t.Fatalf("a frontier of %d rules, two of them twins, made %d memo entries", len(frontier), n)
	}

	// Across batches: every question is now known.
	again := []*logic.Clause{renamed(twin, 30), renamed(others[0], 12), renamed(others[2], 50), renamed(child, 3)}
	if steps := r.Batch("renamed frontier", again, repeatMask(pPos, 4), repeatMask(pNeg, 4)); steps != 0 {
		t.Fatalf("a batch of known rules executed %d steps", steps)
	}
	if steps := r.Batch("renamed root, nil masks", []*logic.Clause{renamed(root, 40)}, nil, nil); steps != 0 {
		t.Fatalf("a known root child executed %d steps", steps)
	}

	// CoverageFull proves what Coverage never tested, and then Coverage,
	// CoverageFull and CoverageFullBatch of any spelling replay it all.
	r.Full("full child", child)
	for _, c := range []struct {
		name string
		run  func() int64
	}{
		{"full twin", func() int64 { return r.Full("full twin", renamed(twin, 8)) }},
		{"full batch", func() int64 { return r.Full("full batch", twin, renamed(child, 60), child) }},
		{"coverage after full", func() int64 { return r.Coverage("coverage after full", renamed(child, 9), nil, nil) }},
	} {
		if steps := c.run(); steps != 0 {
			t.Fatalf("%s: %d steps executed for known questions", c.name, steps)
		}
	}
}

// TestCoverageMemoKeys: what tells two rules apart for a proof tells their
// keys apart — 1 from 1.0, 0.0 from -0.0, a literal from its negation, one
// body order from another — and a renaming does not.
func TestCoverageMemoKeys(t *testing.T) {
	kb := solve.NewKB()
	if err := kb.AddSource(`
		v(m1, 1). v(m2, 2). w(m1, 0.0). w(m3, 0.0).
		u(m2). u(m3).
	`); err != nil {
		t.Fatal(err)
	}
	ex := NewExamples(
		[]logic.Term{logic.MustParseTerm("active(m1)"), logic.MustParseTerm("active(m2)")},
		[]logic.Term{logic.MustParseTerm("active(m3)")})
	m, x, y := logic.V(0), logic.V(1), logic.V(2)
	head := logic.Comp("active", m)
	rule := func(body ...logic.Literal) *logic.Clause { return &logic.Clause{Head: head, Body: body} }
	lit := func(name string, args ...logic.Term) logic.Literal { return logic.Lit(logic.Comp(name, args...)) }
	neg := func(l logic.Literal) logic.Literal { l.Neg = true; return l }
	pairs := []struct {
		name string
		a, b *logic.Clause
	}{
		{"1 vs 1.0", rule(lit("v", m, logic.IntTerm(1))), rule(lit("v", m, logic.FloatTerm(1)))},
		{"0.0 vs -0.0", rule(lit("w", m, logic.FloatTerm(0))), rule(lit("w", m, logic.FloatTerm(math.Copysign(0, -1))))},
		{"0 vs 0.0", rule(lit("w", m, logic.IntTerm(0))), rule(lit("w", m, logic.FloatTerm(0)))},
		{"sign", rule(lit("v", m, x), lit("u", m)), rule(lit("v", m, x), neg(lit("u", m)))},
		{"order", rule(lit("v", m, x), lit("w", m, y)), rule(lit("w", m, y), lit("v", m, x))},
		{"shared variable", rule(lit("v", m, x), lit("w", m, x)), rule(lit("v", m, x), lit("w", m, y))},
	}
	var c coverMemo
	key := func(r *logic.Clause) string { return string(c.appendRule(nil, r)) }
	r := NewRig(t, kb, ex, solve.DefaultBudget)
	seen := map[string]bool{}
	for _, p := range pairs {
		if key(p.a) == key(p.b) {
			t.Errorf("%s: %s and %s share a key", p.name, p.a, p.b)
		}
		if key(p.a) != key(renamed(p.a, 11)) || key(p.b) != key(renamed(p.b, 5)) {
			t.Errorf("%s: a renaming changes the key", p.name)
		}
		want := len(r.Ev.memo.ends)
		for _, k := range []string{key(p.a), key(p.b)} {
			if !seen[k] {
				seen[k] = true
				want++
			}
		}
		r.Batch(p.name, []*logic.Clause{p.a, p.b, renamed(p.a, 11), renamed(p.b, 5)}, nil, nil)
		r.Full(p.name+", full", p.b, p.a)
		if n := len(r.Ev.memo.ends); n != want {
			t.Errorf("%s: %d memo entries, want %d", p.name, n, want)
		}
	}
}

// TestCoverageMemoBudgets runs the frontiers of TestCoverageBatchShapes
// twice on one evaluator under the tight budgets there, where most proofs
// are cut off: a cut-off proof is never stored, so the second pass proves
// it again and counts its cutoff again, and every pass matches proving each
// question on its own.
func TestCoverageMemoBudgets(t *testing.T) {
	kb, ex, bot := benchRichExamples(t, 24)
	parent := bot.Materialize([]int32{0, 2})
	pPos, pNeg := NewEvaluator(solve.NewMachine(kb, solve.DefaultBudget), ex).Coverage(&parent, nil, nil)
	appended := frontierOf(bot, []int32{0, 2, 3}, []int32{0, 2, 4}, []int32{0, 2, 5}, []int32{0, 2, 6}, []int32{0, 2, 7})
	inserted := frontierOf(bot, []int32{0, 3, 8}, []int32{0, 4, 8}, []int32{0, 5, 8}, []int32{0, 6, 8})
	var roots [][]int32
	for j := range bot.Lits {
		roots = append(roots, []int32{int32(j)})
	}
	for _, budget := range []solve.Budget{{MaxInferences: 13}, {MaxInferences: 40, MaxDepth: 1}, solve.DefaultBudget} {
		r := NewRig(t, kb, ex, budget)
		for pass := range 2 {
			name := fmt.Sprintf("budget %+v pass %d", budget, pass)
			r.Batch(name+" appended", appended, repeatMask(pPos, len(appended)), repeatMask(pNeg, len(appended)))
			r.Batch(name+" inserted", inserted, nil, nil)
			r.Batch(name+" roots", frontierOf(bot, roots...), nil, nil)
			r.Full(name+" full", appended...)
			r.Coverage(name+" coverage", appended[1], pPos, nil)
		}
		if budget != solve.DefaultBudget && r.Ev.M.CutoffQueries() == 0 {
			t.Fatalf("budget %+v cuts nothing off", budget)
		}
	}
}

// TestCoverageMemoKBAdd: an answer proved before KB.Add — or before SetKB —
// is not an answer after it.
func TestCoverageMemoKBAdd(t *testing.T) {
	fx := newFixture(t)
	kb := fx.kb.Clone()
	r := NewRig(t, kb, fx.ex, solve.DefaultBudget)
	rule := logic.MustParseClause("active(M) :- atm(M, A, oxygen), bondx(M, B, A).")
	r.Coverage("before", &rule, nil, nil)
	_, before := r.Ev.Coverage(&rule, nil, nil)

	if err := kb.AddSource("atm(m5, a52, oxygen)."); err != nil { // a negative gains an oxygen bonded to a carbon
		t.Fatal(err)
	}
	steps := r.Coverage("after KB.Add", &rule, nil, nil)
	_, after := r.Ev.Coverage(&rule, nil, nil)
	if after.Count() != before.Count()+1 || steps == 0 {
		t.Fatalf("KB.Add flipped no answer: negatives %v before, %v after, %d steps executed", before, after, steps)
	}

	// A KB as large, without the new oxygen.
	other := fx.kb.Clone()
	if err := other.AddSource("atm(m9, a91, carbon)."); err != nil {
		t.Fatal(err)
	}
	r.Ev.M.SetKB(other)
	r.Ref.SetKB(other)
	r.Coverage("after SetKB", &rule, nil, nil)
	if _, back := r.Ev.Coverage(&rule, nil, nil); fmt.Sprint(back) != fmt.Sprint(before) {
		t.Fatalf("on a KB without the new oxygen the rule covers negatives %v, first %v", back, before)
	}
}

// TestCoverageMemoCap: a batch of more distinct rules than the memo keeps
// between calls runs whole, without losing a slab — with pack groups whose
// members were looked up on both sides of the cap — and the next call starts
// from a cleared memo.
func TestCoverageMemoCap(t *testing.T) {
	fx := newFixture(t)
	r := NewRig(t, fx.kb, fx.ex, solve.DefaultBudget)
	var rules []*logic.Clause
	add := func(src string) {
		c := logic.MustParseClause(src)
		rules = append(rules, &c)
	}
	// group adds four siblings differing at body position 1, after a tail
	// that only tells one group from another.
	group := func(tail string) {
		for _, mid := range []string{"bondx(M, A, B)", "atm(M, B, oxygen)", "atm(M, B, carbon)", "bondx(M, B, A)"} {
			add("active(M) :- atm(M, A, carbon), " + mid + tail + ".")
		}
	}
	group("")
	for k := range memoRuleCap + 100 {
		add(fmt.Sprintf("active(M) :- atm(M, A, e%d).", k))
		if k >= memoRuleCap-8 && k <= memoRuleCap-6 { // the first group's lookups reach the cap
			group(fmt.Sprintf(", \\+ atm(M, C, g%d)", k))
		}
	}
	group("") // known by now: the pack does not run
	r.Batch("over the cap", rules, nil, nil)
	if n := len(r.Ev.memo.ends); n <= memoRuleCap {
		t.Fatalf("the batch left %d memo entries, the cap is %d", n, memoRuleCap)
	}
	r.Batch("after the cap", rules[len(rules)-4:], nil, nil)
	if n := len(r.Ev.memo.ends); n != 4 {
		t.Fatalf("the batch after the cap left %d memo entries, want the 4 it asked about", n)
	}
}
