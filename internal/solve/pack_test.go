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

// checkPacksAgree is the pack leg of checkQueriesAgree: random fans over
// random examples, each fan run as one QueryPack on a compiled and on an
// interpreter-pinned machine, against the seed reference proving every
// member on its own. Per member the answer and the charge must agree; per
// example so must the machines' TotalInferences and CutoffQueries. It
// reports the compiled machine's use of the ground-call memo.
func checkPacksAgree(t *testing.T, rng *rand.Rand, kb *KB, budget Budget, fans int) memoUse {
	t.Helper()
	ref := newRefMachine(kb, budget)
	interp := NewMachine(kb, budget)
	interp.SetNoVM(true)
	machines := []struct {
		name string
		m    *Machine
		pack QueryPack
	}{{name: "compiled", m: NewMachine(kb, budget)}, {name: "interpreter", m: interp}}
	for f := 0; f < fans; f++ {
		rules, prefix := genFan(rng)
		ptrs := make([]*logic.Clause, len(rules))
		for c := range rules {
			ptrs[c] = &rules[c]
		}
		for i := range machines {
			machines[i].m.CompilePack(&machines[i].pack, ptrs, prefix)
		}
		want := make([]coverRun, len(rules))
		hit := make([]bool, len(rules))
		for e := 0; e < 8; e++ {
			ex := genExample(rng, rules[0].Head)
			var sum coverRun
			for c := range rules {
				inf, cut := ref.totalInf, ref.cutoffs
				want[c] = coverRun{covered: ref.coversExample(&rules[c], ex)}
				want[c].inferences, want[c].cutoffs = ref.totalInf-inf, ref.cutoffs-cut
				sum.inferences += want[c].inferences
				sum.cutoffs += want[c].cutoffs
			}
			for i := range machines {
				mc := &machines[i]
				got := runCovers(mc.m, func() bool { mc.m.CoversPack(&mc.pack, ex, hit); return false })
				for c := range rules {
					if hit[c] != want[c].covered || mc.pack.Charged(c) != want[c].inferences {
						t.Fatalf("budget %+v, %s pack member %d (%s, shared prefix %d) on %s: covered %v charged %d, reference %+v",
							budget, mc.name, c, rules[c].String(), prefix, ex, hit[c], mc.pack.Charged(c), want[c])
					}
				}
				if got != sum {
					t.Fatalf("budget %+v, %s pack of %d under %s on %s: machine counters moved by %+v, reference %+v",
						budget, mc.name, len(rules), rules[0].String(), ex, got, sum)
				}
			}
		}
	}
	return memoUse{machines[0].m.ReplayedInferences(), machines[0].m.memoRedos}
}

// packCase runs rules (sharing head and prefix leading literals) against ex
// both ways on fresh machines — one CoversQuery per member, one CoversPack —
// and requires every observable to agree. It returns the stand-alone outcomes
// and how many members the pack sent back to CoversQuery.
func packCase(t *testing.T, kb *KB, budget Budget, novm bool, prefix int, ex string, src ...string) ([]coverRun, int64) {
	t.Helper()
	example := logic.MustParseTerm(ex)
	rules := make([]*logic.Clause, len(src))
	for c := range src {
		r := logic.MustParseClause(src[c])
		rules[c] = &r
	}
	alone, packed := NewMachine(kb, budget), NewMachine(kb, budget)
	alone.SetNoVM(novm)
	packed.SetNoVM(novm)
	want := make([]coverRun, len(rules))
	for c, r := range rules {
		var q Query
		alone.CompileQuery(&q, r)
		want[c] = runCovers(alone, func() bool { return alone.CoversQuery(&q, example) })
	}
	var pack QueryPack
	packed.CompilePack(&pack, rules, prefix)
	hit := make([]bool, len(rules))
	for round := 0; round < 2; round++ { // the second run reuses the pack's scratch
		packed.ResetCounters()
		packed.CoversPack(&pack, example, hit)
		for c := range rules {
			if hit[c] != want[c].covered || pack.Charged(c) != want[c].inferences {
				t.Fatalf("novm=%v member %d (%s): pack says covered %v charged %d, stand-alone %+v",
					novm, c, src[c], hit[c], pack.Charged(c), want[c])
			}
		}
		if packed.TotalInferences() != alone.TotalInferences() || packed.CutoffQueries() != alone.CutoffQueries() {
			t.Fatalf("novm=%v: pack total %d inferences %d cutoffs, stand-alone %d and %d", novm,
				packed.TotalInferences(), packed.CutoffQueries(), alone.TotalInferences(), alone.CutoffQueries())
		}
	}
	return want, packed.packRedos
}

// TestPackBudgetFallbacks drives each way a budget event can reach a pack
// member through a hand-built program, and pins besides exactness how many
// members fell back to CoversQuery: one too few means a trigger was missed
// and another happened to mask it, one too many that a cut leaked from one
// member to its siblings.
func TestPackBudgetFallbacks(t *testing.T) {
	kb := kbFrom(t, `
		p(1). p(2). p(3). p(4). p(5). p(6).
		first(1). last(6). ends(1). ends(6).
		q(1, a). q(1, b). q(1, c). q(1, d). q(1, e). q(1, f). q(1, g). q(1, h).
		slow(X) :- q(X, W), r(W).
		r(zz).
		ok(1). ok(6). yes(6).

		edge(a, b). edge(b, c). edge(c, d).
		deep(X, Y) :- edge(X, Z), deep(Z, Y).
		deep(X, Y) :- edge(X, Y).
		shallow(X, Y) :- edge(X, Y).
		shallow(X, Y) :- edge(X, Z), shallow(Z, Y).
		at(b). on(b). off(zz).
	`)
	for _, novm := range []bool{false, true} {
		// No budget event: nothing falls back, and the pack really did share
		// the prefix.
		want, redos := packCase(t, kb, DefaultBudget, novm, 1, "h(x)",
			"h(X) :- p(Y), ok(Y).", "h(X) :- p(Y), yes(Y).", "h(X) :- p(Y), slow(Y).")
		if redos != 0 || !want[0].covered || !want[1].covered || want[2].covered {
			t.Fatalf("novm=%v unbounded: %d fallbacks, stand-alone %+v", novm, redos, want)
		}

		// The prefix is cut off before its first solution: p(Y), last(Y)
		// needs 6 + 6 + 1 charges to get there, the budget allows 8.
		want, redos = packCase(t, kb, Budget{MaxInferences: 8}, novm, 2, "h(x)",
			"h(X) :- p(Y), last(Y), ok(Y).", "h(X) :- p(Y), last(Y), yes(Y).")
		if redos != 2 || want[0].covered || want[0].cutoffs != 1 || want[1].cutoffs != 1 {
			t.Fatalf("novm=%v prefix cut before its first solution: %d fallbacks, stand-alone %+v", novm, redos, want)
		}

		// The running sum crosses the budget between two prefix solutions:
		// slow(1) fails after some 20 charges at the first solution of
		// p(Y), ends(Y); the prefix alone reaches its second solution (Y = 6)
		// well inside the budget, slow's member does not. Its siblings —
		// one done at the first solution, one at the second — never notice.
		want, redos = packCase(t, kb, Budget{MaxInferences: 30}, novm, 2, "h(x)",
			"h(X) :- p(Y), ends(Y), slow(Y).", "h(X) :- p(Y), ends(Y), ok(Y).", "h(X) :- p(Y), ends(Y), yes(Y).")
		if redos != 1 || want[0].cutoffs != 1 || !want[1].covered || !want[2].covered || want[1].cutoffs+want[2].cutoffs != 0 {
			t.Fatalf("novm=%v sum crossing between solutions: %d fallbacks, stand-alone %+v", novm, redos, want)
		}

		// The same crossing with no second solution to notice it at: the
		// prefix p(Y), first(Y) runs dry inside the budget, slow's member's
		// sum is past it by then.
		want, redos = packCase(t, kb, Budget{MaxInferences: 30}, novm, 2, "h(x)",
			"h(X) :- p(Y), first(Y), slow(Y).", "h(X) :- p(Y), first(Y), yes(Y).")
		if redos != 1 || want[0].cutoffs != 1 || want[1].covered || want[1].cutoffs != 0 {
			t.Fatalf("novm=%v sum past the budget at exhaustion: %d fallbacks, stand-alone %+v", novm, redos, want)
		}

		// A suffix is cut off: by MaxInferences inside slow(1), and by
		// MaxDepth inside deep(a, Z) — which goes on to succeed, a covered
		// example that still counts as a cutoff query. The sibling tried
		// after it under the same prefix solution must not inherit the flag.
		want, redos = packCase(t, kb, Budget{MaxInferences: 12}, novm, 1, "h(x)",
			"h(X) :- first(Y), slow(Y).", "h(X) :- first(Y), ok(Y).")
		if redos != 1 || want[0].cutoffs != 1 || !want[1].covered || want[1].cutoffs != 0 {
			t.Fatalf("novm=%v suffix cut by MaxInferences: %d fallbacks, stand-alone %+v", novm, redos, want)
		}
		want, redos = packCase(t, kb, Budget{MaxDepth: 2}, novm, 1, "h(a)",
			"h(X) :- edge(X, Y), deep(X, Z).", "h(X) :- edge(X, Y), at(Y).")
		if redos != 1 || !want[0].covered || want[0].cutoffs != 1 || !want[1].covered || want[1].cutoffs != 0 {
			t.Fatalf("novm=%v suffix cut by MaxDepth: %d fallbacks, stand-alone %+v", novm, redos, want)
		}

		// MaxDepth in the prefix, before its first solution: deep(a, Y)
		// abandons the recursive branch at depth 2 and then finds Y = b by
		// its second clause. Both members that succeed there are cutoff
		// queries stand-alone and must be in the pack; so is the one that
		// fails.
		want, redos = packCase(t, kb, Budget{MaxDepth: 2}, novm, 1, "h(a)",
			"h(X) :- deep(X, Y), at(Y).", "h(X) :- deep(X, Y), on(Y).", "h(X) :- deep(X, Y), off(Y).")
		if redos != 3 || !want[0].covered || !want[1].covered || want[2].covered ||
			want[0].cutoffs != 1 || want[1].cutoffs != 1 || want[2].cutoffs != 1 {
			t.Fatalf("novm=%v MaxDepth in the prefix before a solution: %d fallbacks, stand-alone %+v", novm, redos, want)
		}

		// MaxDepth in the prefix after its last solution: shallow(a, Y)
		// yields Y = b first and only then descends into the cut. The member
		// satisfied at b stopped before the cut and is not a cutoff query;
		// the unsatisfied one saw it.
		want, redos = packCase(t, kb, Budget{MaxDepth: 2}, novm, 1, "h(a)",
			"h(X) :- shallow(X, Y), at(Y).", "h(X) :- shallow(X, Y), off(Y).")
		if redos != 1 || !want[0].covered || want[0].cutoffs != 0 || want[1].covered || want[1].cutoffs != 1 {
			t.Fatalf("novm=%v MaxDepth in the prefix after its last solution: %d fallbacks, stand-alone %+v", novm, redos, want)
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
	for _, novm := range []bool{false, true} {
		packCase(t, kb, DefaultBudget, novm, 1, "other(x)", "h(X) :- p(Y), ok(Y).", "h(X) :- p(Y), odd(Y).")
		packCase(t, kb, DefaultBudget, novm, 1, "h(x)", "h(X) :- p(Y).", "h(X) :- p(Y), ok(Y).", "h(X) :- p(Y).")
		packCase(t, kb, DefaultBudget, novm, 2, "h(x)", "h(X) :- p(Y), ok(Y).", "h(X) :- p(Y), ok(Y).")
		packCase(t, kb, DefaultBudget, novm, 1, "h(x)", "h(X) :- p(Y), ok(Y), odd(Y).")
		packCase(t, kb, DefaultBudget, novm, 2, "h(2)",
			"h(X) :- p(Y), Y > X, ok(Y), odd(Y).", "h(X) :- p(Y), Y > X, \\+ok(Y).", "h(X) :- p(Y), Y > X, Z is Y + X, Z > 4.")
		packCase(t, kb, DefaultBudget, novm, 2, "h(2)",
			"h(X) :- p(Y), \\+odd(Y), ok(Y).", "h(X) :- p(Y), \\+odd(Y), Y \\= X.")
	}
}

// TestPackOutlivesItsProgram: a held pack whose machine has moved to
// another compiled program — the KB grew, or the engine was toggled — must
// answer and charge as fresh stand-alone queries do (see
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
		fresh := NewMachine(m.KB(), DefaultBudget)
		fresh.SetNoVM(m.NoVM())
		wantInf := make([]int64, 2)
		for c, r := range rules {
			run := runCovers(fresh, func() bool { return fresh.CoversExample(r, ex) })
			if want := c == 0 || wantB; run.covered != want {
				t.Fatalf("%s: fresh machine says member %d covered = %v", what, c, run.covered)
			}
			wantInf[c] = run.inferences
		}
		before := m.TotalInferences()
		m.CoversPack(&pack, ex, hit)
		if !hit[0] || hit[1] != wantB || pack.Charged(0) != wantInf[0] || pack.Charged(1) != wantInf[1] {
			t.Fatalf("%s: held pack says %v charged %d/%d, fresh queries want [true %v] charged %v",
				what, hit, pack.Charged(0), pack.Charged(1), wantB, wantInf)
		}
		if got := m.TotalInferences() - before; got != wantInf[0]+wantInf[1] {
			t.Fatalf("%s: held pack moved TotalInferences by %d, fresh queries by %d", what, got, wantInf[0]+wantInf[1])
		}
	}
	check("initial", false)
	kb.Add(logic.MustParseClause("marked(1)."))
	check("after KB.Add", true)
	m.SetNoVM(true)
	check("after SetNoVM(true)", true)
}

// TestCoversPackAllocFree pins the steady-state allocation contract of the
// pack path: the continuation is bound once per pack and every scratch slice
// lives on it, so running an example allocates nothing — budget fallbacks
// included — and neither does recompiling the pack for the next frontier.
func TestCoversPackAllocFree(t *testing.T) {
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
	for _, novm := range []bool{false, true} {
		for _, budget := range []Budget{DefaultBudget, {MaxInferences: 40}} {
			m := NewMachine(kb, budget)
			m.SetNoVM(novm)
			var pack QueryPack
			m.CompilePack(&pack, wide, 1)
			m.CoversPack(&pack, ex, hit)
			if budget == DefaultBudget && (m.packRedos != 0 || m.StepsExecuted() >= m.TotalInferences()) {
				t.Fatalf("novm=%v: %d fallbacks, %d steps for %d charged — the pack shares nothing", novm,
					m.packRedos, m.StepsExecuted(), m.TotalInferences())
			}
			if budget != DefaultBudget && m.packRedos == 0 {
				t.Fatalf("novm=%v budget %+v: no fallback exercised", novm, budget)
			}
			if n := testing.AllocsPerRun(50, func() { m.CoversPack(&pack, ex, hit) }); n != 0 {
				t.Errorf("novm=%v budget %+v: CoversPack allocates %v per example", novm, budget, n)
			}
			i := 0
			if n := testing.AllocsPerRun(50, func() {
				if i++; i%2 == 0 {
					m.CompilePack(&pack, wide, 1)
				} else {
					m.CompilePack(&pack, narrow, 2)
				}
				m.CoversPack(&pack, ex, hit)
			}); n != 0 {
				t.Errorf("novm=%v budget %+v: recompiling the pack allocates %v per frontier", novm, budget, n)
			}
		}
	}
}
