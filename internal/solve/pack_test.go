package solve

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// genFan builds a random pack: a genRule head over a shared prefix of one or
// two genGoal literals, and two to five members whose own suffixes are drawn
// from everything a body can hold — KB predicates (recursive ones included),
// negation, a builtin, an unknown predicate, two literals, and now and then
// nothing at all (the parent rule riding with its children).
func genFan(rng *rand.Rand) (rules []logic.Clause, prefix int) {
	var base logic.Clause
	for len(base.Body) == 0 {
		base = genRule(rng)
	}
	prefix = len(base.Body)
	x, y := logic.V(0), logic.V(1)
	for c := 2 + rng.Intn(4); c > 0; c-- {
		var suffix []logic.Literal
		switch rng.Intn(8) {
		case 0: // empty suffix
		case 1:
			suffix = []logic.Literal{logic.Lit(logic.Comp("\\=", x, y))}
		case 2:
			suffix = []logic.Literal{logic.Lit(logic.Comp("nosuch", x))}
		default:
			suffix, _ = genGoal(rng)
			if rng.Intn(4) == 0 {
				suffix[0].Neg = true
			}
		}
		body := append(append([]logic.Literal(nil), base.Body...), suffix...)
		rules = append(rules, logic.Clause{Head: base.Head, Body: body})
	}
	return rules, prefix
}

// packCase asks the property one pack of rules, sharing head and prefix
// leading literals, on ex. It returns the oracle's stand-alone outcomes and
// how many members the pack proved again in exact mode.
func packCase(t *testing.T, kb *KB, budget Budget, prefix int, ex string, src ...string) ([]coverRun, int64) {
	t.Helper()
	in := oracleInput{name: src[0], kb: kb, groups: []oracleGroup{group(prefix, ex, src...)}}
	run := proverMatchesOracle(t, &in, budget)
	return run.want[0][0], run.cold.Packed
}

// TestPackSuffixChargedBeforeRecording: a one-goal suffix answered in place
// pays the call's own charge before the memo looks the call up, as step
// does, so a call whose own charge meets the budget is not recorded. That
// shows in the memo only: exact mode answers the query either way.
func TestPackSuffixChargedBeforeRecording(t *testing.T) {
	kb, ex := packKB(t), logic.MustParseTerm("h(x)")
	prefix := logic.MustParseClause("h(X) :- first(Y).")
	rules := []*logic.Clause{}
	for _, src := range []string{"h(X) :- first(Y), slow(Y).", "h(X) :- first(Y), ok(Y)."} {
		r := logic.MustParseClause(src)
		rules = append(rules, &r)
	}
	at := newRefMachine(kb, DefaultBudget).run(&prefix, ex).inferences // the prefix's first solution
	for _, c := range []struct {
		max  int64
		want bool
	}{{at + 1, false}, {at + 2, true}} {
		m := NewMachine(kb, Budget{MaxInferences: c.max})
		var pack QueryPack
		m.CompilePack(&pack, rules, 1)
		m.CoversPack(&pack, ex, make([]bool, len(rules)), nil)
		if _, ok := recorded(m, "slow(1)"); ok != c.want {
			t.Errorf("MaxInferences %d, the prefix's solution at %d: slow(1) recorded %v, want %v", c.max, at, ok, c.want)
		}
	}
}

// TestPackDegenerateShapes covers what a search frontier never builds but
// the API admits: a head no example matches, members with no suffix, members
// that are the same rule, a one-member pack, builtins and negation on either
// side of the split.
func TestPackDegenerateShapes(t *testing.T) {
	kb := kbFrom(t, `
		p(1). p(2). p(3). ok(2). ok(3). odd(1). odd(3).
	`)
	packCase(t, kb, DefaultBudget, 1, "other(x)", "h(X) :- p(Y), ok(Y).", "h(X) :- p(Y), odd(Y).")
	packCase(t, kb, DefaultBudget, 1, "h(x)", "h(X) :- p(Y).", "h(X) :- p(Y), ok(Y).", "h(X) :- p(Y).")
	packCase(t, kb, DefaultBudget, 2, "h(x)", "h(X) :- p(Y), ok(Y).", "h(X) :- p(Y), ok(Y).")
	packCase(t, kb, DefaultBudget, 1, "h(x)", "h(X) :- p(Y), ok(Y), odd(Y).")
	packCase(t, kb, DefaultBudget, 2, "h(2)",
		"h(X) :- p(Y), Y > X, ok(Y), odd(Y).", "h(X) :- p(Y), Y > X, \\+ok(Y).", "h(X) :- p(Y), Y > X, Z is Y + X, Z > 4.")
	packCase(t, kb, DefaultBudget, 2, "h(2)",
		"h(X) :- p(Y), \\+odd(Y), ok(Y).", "h(X) :- p(Y), \\+odd(Y), Y \\= X.")
}

// TestPackOutlivesItsProgram: a held pack whose machine has moved to
// another compiled program — the KB grew — must
// answer and charge as the oracle does (see
// TestQueryRecompilesOnProgramChange for the single-query form).
func TestPackOutlivesItsProgram(t *testing.T) {
	kb := kbFrom(t, `
		p(1). p(2). ok(2).
	`)
	a := logic.MustParseClause("h(X) :- p(Y), ok(Y).")
	b := logic.MustParseClause("h(X) :- p(Y), marked(Y).")
	rules := []*logic.Clause{&a, &b}
	ex := logic.MustParseTerm("h(x)")
	m := NewMachine(kb, DefaultBudget)
	var pack QueryPack
	m.CompilePack(&pack, rules, 1)
	hit := make([]bool, 2)
	check := func(what string, wantB bool) {
		t.Helper()
		ref := newRefMachine(m.KB(), DefaultBudget)
		wantInf := make([]int64, 2)
		for c, r := range rules {
			run := ref.run(r, ex)
			if want := c == 0 || wantB; run.covered != want {
				t.Fatalf("%s: the oracle says member %d covered = %v", what, c, run.covered)
			}
			wantInf[c] = run.inferences
		}
		before := m.TotalInferences()
		m.CoversPack(&pack, ex, hit, nil)
		if !hit[0] || hit[1] != wantB || pack.Charged(0) != wantInf[0] || pack.Charged(1) != wantInf[1] {
			t.Fatalf("%s: held pack says %v charged %d/%d, the oracle [true %v] charged %v",
				what, hit, pack.Charged(0), pack.Charged(1), wantB, wantInf)
		}
		if got := m.TotalInferences() - before; got != wantInf[0]+wantInf[1] {
			t.Fatalf("%s: held pack moved TotalInferences by %d, the oracle charges %d", what, got, wantInf[0]+wantInf[1])
		}
	}
	check("initial", false)
	kb.Add(logic.MustParseClause("marked(1)."))
	check("after KB.Add", true)
}

// TestCoversPackAllocFree pins the steady-state allocation contract of the
// pack path: the continuation is bound once per pack and every scratch slice
// lives on it, so running an example allocates nothing — exact re-proofs
// included — and neither does recompiling the pack for the next frontier,
// nor answering a warm pack's one-goal ground suffixes from the memo in
// place (BenchmarkCoversPackGroundSuffix).
func TestCoversPackAllocFree(t *testing.T) {
	gm := NewMachine(benchGroundKB(), DefaultBudget)
	ground, drugs, answers := warmGroundPack(gm)
	d, replayed := 0, gm.ReplayedInferences()
	if n := testing.AllocsPerRun(50, func() { gm.CoversPack(ground, drugs[d%len(drugs)], answers, nil); d++ }); n != 0 {
		t.Errorf("warm ground-suffix pack allocates %v per example", n)
	}
	if gm.ReplayedInferences() == replayed {
		t.Error("the warm ground-suffix pack replayed nothing")
	}

	kb := benchRuleKB(200)
	fan := func(src ...string) []*logic.Clause {
		out := make([]*logic.Clause, len(src))
		for i := range src {
			c := logic.MustParseClause(src[i])
			out[i] = &c
		}
		return out
	}
	wide := fan(
		"active(M) :- atm(M, A, carbon, T, C), bond(M, A, B, 1).",
		"active(M) :- atm(M, A, carbon, T, C), heavy(M).",
		"active(M) :- atm(M, A, carbon, T, C), \\+ring3(M).",
		"active(M) :- atm(M, A, carbon, T, C), T > 1000.",
	)
	narrow := fan(
		"active(M) :- heavy(M), linked(M, A, B), ring3(M).",
		"active(M) :- heavy(M), linked(M, A, B), bond(M, B, A, 1).",
	)
	ex := logic.MustParseTerm("active(m7)")
	hit := make([]bool, len(wide))
	for _, budget := range []Budget{DefaultBudget, {MaxInferences: 40}} {
		m := NewMachine(kb, budget)
		var pack QueryPack
		m.CompilePack(&pack, wide, 1)
		m.CoversPack(&pack, ex, hit, nil)
		if budget == DefaultBudget && (m.reproofs != 0 || m.StepsExecuted() >= m.TotalInferences()) {
			t.Fatalf("%d re-proofs, %d steps for %d charged — the pack shares nothing",
				m.reproofs, m.StepsExecuted(), m.TotalInferences())
		}
		if budget != DefaultBudget && m.reproofs == 0 {
			t.Fatalf("budget %+v: no re-proof exercised", budget)
		}
		if n := testing.AllocsPerRun(50, func() { m.CoversPack(&pack, ex, hit, nil) }); n != 0 {
			t.Errorf("budget %+v: CoversPack allocates %v per example", budget, n)
		}
		i := 0
		if n := testing.AllocsPerRun(50, func() {
			if i++; i%2 == 0 {
				m.CompilePack(&pack, wide, 1)
			} else {
				m.CompilePack(&pack, narrow, 2)
			}
			m.CoversPack(&pack, ex, hit, nil)
		}); n != 0 {
			t.Errorf("budget %+v: recompiling the pack allocates %v per frontier", budget, n)
		}
	}
}
