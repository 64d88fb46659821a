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
// example so must the machines' TotalInferences and CutoffQueries. Each
// example then runs once more with about one member in four skipped, as an
// evaluator does with answers it already has: a skipped member must come
// back uncovered and uncharged, every other one as the reference proved it,
// and the counters must move by the live members' sum. It reports the
// compiled machine's use of the fast paths.
func checkPacksAgree(t *testing.T, rng *rand.Rand, kb *KB, budget Budget, fans int) fastUse {
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
		hit, skip := make([]bool, len(rules)), make([]bool, len(rules))
		for e := 0; e < 8; e++ {
			ex := genExample(rng, rules[0].Head)
			for c := range rules {
				inf, cut := ref.totalInf, ref.cutoffs
				want[c] = coverRun{covered: ref.coversExample(&rules[c], ex)}
				want[c].inferences, want[c].cutoffs = ref.totalInf-inf, ref.cutoffs-cut
				skip[c] = (f+e+c)%4 == 3
			}
			for _, pass := range []struct {
				name string
				skip []bool
			}{{"every member", nil}, {"one in four skipped", skip}} {
				var sum coverRun
				for c := range rules {
					if pass.skip == nil || !pass.skip[c] {
						sum.inferences += want[c].inferences
						sum.cutoffs += want[c].cutoffs
					}
				}
				for i := range machines {
					mc := &machines[i]
					got := runCovers(mc.m, func() bool { mc.m.CoversPack(&mc.pack, ex, hit, pass.skip); return false })
					for c := range rules {
						w := want[c]
						if pass.skip != nil && pass.skip[c] {
							w = coverRun{}
						}
						if hit[c] != w.covered || mc.pack.Charged(c) != w.inferences {
							t.Fatalf("budget %+v, %s, %s pack member %d (%s, shared prefix %d) on %s: covered %v charged %d, reference %+v",
								budget, pass.name, mc.name, c, rules[c].String(), prefix, ex, hit[c], mc.pack.Charged(c), w)
						}
					}
					if got != sum {
						t.Fatalf("budget %+v, %s, %s pack of %d under %s on %s: machine counters moved by %+v, reference %+v",
							budget, pass.name, mc.name, len(rules), rules[0].String(), ex, got, sum)
					}
				}
			}
		}
	}
	return fastUse{machines[0].m.ReplayedInferences(), machines[0].m.reproofs}
}

// packCase runs rules (sharing head and prefix leading literals) against ex
// both ways on fresh machines — one CoversQuery per member, one CoversPack —
// and requires every observable to agree. It returns the stand-alone outcomes
// and how many members the pack's last run proved again in exact mode.
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
		packed.CoversPack(&pack, example, hit, nil)
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
	return want, packed.reproofs
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
		m.CoversPack(&pack, ex, hit, nil)
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
// lives on it, so running an example allocates nothing — exact re-proofs
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
			m.CoversPack(&pack, ex, hit, nil)
			if budget == DefaultBudget && (m.reproofs != 0 || m.StepsExecuted() >= m.TotalInferences()) {
				t.Fatalf("novm=%v: %d re-proofs, %d steps for %d charged — the pack shares nothing", novm,
					m.reproofs, m.StepsExecuted(), m.TotalInferences())
			}
			if budget != DefaultBudget && m.reproofs == 0 {
				t.Fatalf("novm=%v budget %+v: no re-proof exercised", novm, budget)
			}
			if n := testing.AllocsPerRun(50, func() { m.CoversPack(&pack, ex, hit, nil) }); n != 0 {
				t.Errorf("novm=%v budget %+v: CoversPack allocates %v per example", novm, budget, n)
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
				t.Errorf("novm=%v budget %+v: recompiling the pack allocates %v per frontier", novm, budget, n)
			}
		}
	}
}
