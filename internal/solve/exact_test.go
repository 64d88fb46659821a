package solve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
)

// The tests here pin exact mode (query.go): each fast path — the candidate
// filter, the ground-call memo, the query pack — is exact only up to the
// first budget event, and past one the machine must report what an exact
// proof reports. So one sweep cuts every proof at every charge and at every
// depth, and requires the fast machine, the exact re-proof and the
// interpreter to agree query by query and pack member by pack member; each
// test runs it over its own programs.

// sweepDepths are the MaxDepth values of the sweep: the cuts right below and
// at the hand-built programs' deepest frames, and the default.
var sweepDepths = []int{1, 2, 3, 4, 6, 7, 64}

// sweepInput is one program with what the sweep runs on it: groups of rules,
// each proved on its examples rule by rule and, when prefix > 0, as one
// QueryPack sharing that many leading body literals; and conjunctions
// enumerated by Solve.
type sweepInput struct {
	name   string
	kb     *KB
	groups []sweepGroup
	enums  [][]logic.Literal
}

type sweepGroup struct {
	prefix   int
	rules    []*logic.Clause
	examples []logic.Term
}

func group(prefix int, examples string, rules ...string) sweepGroup {
	g := sweepGroup{prefix: prefix}
	for _, e := range strings.Split(examples, " ") {
		g.examples = append(g.examples, logic.MustParseTerm(e))
	}
	for _, src := range rules {
		r := logic.MustParseClause(src)
		g.rules = append(g.rules, &r)
	}
	return g
}

// The hand-built programs put a budget event at each place a fast path can
// meet one; each is swept by the test named after what it drives.

// packKB is TestPackBudgetFallbacks's program.
func packKB(t *testing.T) *KB {
	return kbFrom(t, `
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
}

// packInput: a prefix cut before its first solution, a running sum crossing
// the budget between two prefix solutions and at prefix exhaustion, a suffix
// cut by MaxInferences and by MaxDepth, a prefix cut by MaxDepth before its
// first solution and after its last.
func packInput(t *testing.T) sweepInput {
	return sweepInput{name: "packs", kb: packKB(t), groups: []sweepGroup{
		group(1, "h(x)", "h(X) :- p(Y), ok(Y).", "h(X) :- p(Y), yes(Y).", "h(X) :- p(Y), slow(Y)."),
		group(2, "h(x)", "h(X) :- p(Y), last(Y), ok(Y).", "h(X) :- p(Y), last(Y), yes(Y)."),
		group(2, "h(x)", "h(X) :- p(Y), ends(Y), slow(Y).", "h(X) :- p(Y), ends(Y), ok(Y).", "h(X) :- p(Y), ends(Y), yes(Y)."),
		group(2, "h(x)", "h(X) :- p(Y), first(Y), slow(Y).", "h(X) :- p(Y), first(Y), yes(Y)."),
		group(1, "h(x)", "h(X) :- first(Y), slow(Y).", "h(X) :- first(Y), ok(Y)."),
		group(1, "h(a)", "h(X) :- edge(X, Y), deep(X, Z).", "h(X) :- edge(X, Y), at(Y)."),
		group(1, "h(a)", "h(X) :- deep(X, Y), at(Y).", "h(X) :- deep(X, Y), on(Y).", "h(X) :- deep(X, Y), off(Y)."),
		group(1, "h(a)", "h(X) :- shallow(X, Y), at(Y).", "h(X) :- shallow(X, Y), off(Y)."),
	}}
}

// memoRules make ground calls to rules with one solution, with several,
// nested; memoInput repeats each across examples so that later calls replay.
var memoRules = []string{
	"h(D) :- subst(D, P, G), polar_gte(G, 2), marked(D, G).",
	"h(D) :- subst(D, P, G), polar_any(G), marked(D, G).",
	"h(D) :- subst(D, P, G), polar_any(G), polar_gte(G, 3).",
	"h(D) :- subst(D, P, G), strong(G), G \\= g1.",
	"h(D) :- subst(D, P, G), polar_gte(G, 1), strong(G), marked(D, G).",
}

func memoInput(t *testing.T) sweepInput {
	return sweepInput{name: "memo", kb: memoKB(t), groups: []sweepGroup{group(1, "h(d1) h(d2) h(d1)", memoRules...)}}
}

// depthKB: g(a) is recorded at depth 0, where its subtree reaches three
// levels below it, then called at depth 3 through three wrappers; n(a)'s
// deepest frame is its negation's sub-proof.
func depthKB(t *testing.T) *KB {
	return kbFrom(t, `
		g(X) :- g1(X).
		g1(X) :- g2(X).
		g2(X) :- ok(X).
		ok(a).
		w1(X) :- w2(X).
		w2(X) :- w3(X).
		w3(X) :- g(X).
		n(X) :- \+ bad(X).
		bad(zz).
		v1(X) :- v2(X).
		v2(X) :- n(X).
	`)
}

func depthInput(t *testing.T) sweepInput {
	return sweepInput{name: "memo depth", kb: depthKB(t), groups: []sweepGroup{
		group(1, "h(a) h(a)", "h(X) :- g(X)."),
		group(1, "h(a) h(a)", "h(X) :- w1(X)."),
		group(1, "h(a) h(a)", "h(X) :- n(X)."),
		group(1, "h(a) h(a)", "h(X) :- v1(X)."),
	}}
}

// bulkInput: one 20-fact first-argument bucket of w/4 in which the goal
// w(k, X, red, 1) matches facts 4, 5 and 12 — a rejected run of four at the
// head of the bucket, of six in the middle, of seven at the tail — with
// enough below each match for a budget to run out there as well.
func bulkInput(t *testing.T) sweepInput {
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
	return sweepInput{name: "filter", kb: kbFrom(t, src.String()), groups: []sweepGroup{group(1, "h(e)",
		"h(E) :- w(k, X, red, 1), good(X).",
		"h(E) :- w(k, X, red, 1), w(k, Y, blue, 2), last(Y), good(X).",
		"h(E) :- w(k, X, red, 1), twin(X), good(X).",
		"h(E) :- w(k, X, red, 1), w(k, X, green, N).",
		"h(E) :- w(k, X, red, 1), w(k, Y, C, 1), Y \\= X, nosuch(Y).",
	)}, enums: [][]logic.Literal{logic.MustParseClause("all(X, Y) :- w(k, X, red, N), w(k, Y, C, 3), fine(X).").Body}}
}

// genInput draws an input from the differential suite's generators: rules,
// fans and conjunctions kept only if every proof of them ends within limit
// charges at every depth of the sweep, and with no cutoff at the default
// depth — so the sweep stays small and DefaultBudget re-proves nothing.
func genInput(seed, limit int64) sweepInput {
	rng := rand.New(rand.NewSource(seed))
	in := sweepInput{name: fmt.Sprintf("genProgram seed %d", seed), kb: genProgram(rng)}
	fits := func(prove func(m *Machine) bool) bool {
		for _, d := range sweepDepths {
			m := NewMachine(in.kb, Budget{MaxDepth: d, MaxInferences: limit})
			m.SetNoVM(true)
			if r := runCovers(m, func() bool { return prove(m) }); r.inferences >= limit || d == defaultMaxDepth && r.cutoffs > 0 {
				return false
			}
		}
		return true
	}
	draw := func(rules []logic.Clause, prefix int) {
		g := sweepGroup{prefix: prefix}
		for e := 0; e < 3; e++ {
			g.examples = append(g.examples, genExample(rng, rules[0].Head))
		}
		for i := range rules {
			for _, ex := range g.examples {
				if !fits(func(m *Machine) bool { return m.CoversExample(&rules[i], ex) }) {
					return
				}
			}
			g.rules = append(g.rules, &rules[i])
		}
		in.groups = append(in.groups, g)
	}
	for i := 0; i < 8; i++ {
		draw([]logic.Clause{genRule(rng)}, 0)
	}
	for i := 0; i < 4; i++ {
		draw(genFan(rng))
	}
	for i := 0; i < 4; i++ {
		goals, nv := genGoal(rng)
		if fits(func(m *Machine) bool { return m.Solve(goals, nv, func(*logic.Bindings) bool { return true }) }) {
			in.enums = append(in.enums, goals)
		}
	}
	return in
}

// longest is the largest charge of any proof of in at any depth of the sweep.
func (in *sweepInput) longest() int64 {
	l := int64(0)
	for _, d := range sweepDepths {
		m := NewMachine(in.kb, Budget{MaxDepth: d})
		m.SetNoVM(true)
		for _, g := range in.groups {
			for _, r := range g.rules {
				for _, ex := range g.examples {
					l = max(l, runCovers(m, func() bool { return m.CoversExample(r, ex) }).inferences)
				}
			}
		}
		for _, goals := range in.enums {
			l = max(l, enumerate(m, goals).inferences)
		}
	}
	return l
}

// enumeration is what Solve reports for a conjunction: the solutions in
// order (up to 200) with their charge and cutoff.
type enumeration struct {
	solutions string
	coverRun
}

func enumerate(m *Machine, goals []logic.Literal) enumeration {
	nv := 0
	for _, g := range goals {
		nv = max(nv, g.Atom.MaxVar()+1)
	}
	var sols []string
	run := runCovers(m, func() bool {
		return m.Solve(goals, nv, func(bs *logic.Bindings) bool {
			sols = append(sols, solutionString(bs, nv))
			return len(sols) < 200
		})
	})
	return enumeration{strings.Join(sols, "; "), run}
}

// sweepBudget runs in at one budget. Every rule is proved on every example
// of its group on a fast machine (CoversQuery), by the exact re-proof on
// its own (proveExact), on the interpreter and, with its proof tree, by
// ProveExample on a VM and a NoVM machine; every pack runs on the VM and on
// the interpreter; every conjunction is enumerated on the fast machine and on
// the interpreter. Answers, charges and cutoffs must agree throughout, a
// proof's root must be the example, and the executed-work counters must add
// up. It returns the re-proofs of the fast rule-by-rule machine and of the VM
// pack machine.
func sweepBudget(t *testing.T, in *sweepInput, b Budget) (alone, packed int64) {
	t.Helper()
	fast, exact, interp := NewMachine(in.kb, b), NewMachine(in.kb, b), NewMachine(in.kb, b)
	interp.SetNoVM(true)
	provers := []*Machine{NewMachine(in.kb, b), NewMachine(in.kb, b)}
	provers[1].SetNoVM(true)
	packers := []*Machine{NewMachine(in.kb, b), NewMachine(in.kb, b)}
	packers[1].SetNoVM(true)
	for _, g := range in.groups {
		qs := make([][3]Query, len(g.rules))
		for c, r := range g.rules {
			fast.CompileQuery(&qs[c][0], r)
			exact.CompileQuery(&qs[c][1], r)
			interp.CompileQuery(&qs[c][2], r)
		}
		packs := make([]QueryPack, len(packers))
		if g.prefix > 0 {
			for i, m := range packers {
				m.CompilePack(&packs[i], g.rules, g.prefix)
			}
		}
		want := make([]coverRun, len(g.rules))
		hit := make([]bool, len(g.rules))
		for _, ex := range g.examples {
			var sum coverRun
			for c, r := range g.rules {
				want[c] = runCovers(interp, func() bool { return interp.CoversQuery(&qs[c][2], ex) })
				f := runCovers(fast, func() bool { return fast.CoversQuery(&qs[c][0], ex) })
				e := runCovers(exact, func() bool { return exact.proveExact(&qs[c][1], ex) })
				if f != want[c] || e != want[c] {
					t.Fatalf("%s, budget %+v, %s on %s: fast %+v, exact %+v, interpreter %+v", in.name, b, r.String(), ex, f, e, want[c])
				}
				for _, pm := range provers {
					var proof *ProofStep
					p := runCovers(pm, func() (ok bool) { proof, ok = pm.ProveExample(r, ex); return ok })
					if p != want[c] || p.covered && !logic.Equal(proof.Goal, ex) {
						t.Fatalf("%s, budget %+v, novm=%v %s on %s: ProveExample %+v with root %v, interpreter %+v",
							in.name, b, pm.NoVM(), r.String(), ex, p, proof, want[c])
					}
				}
				sum.inferences += want[c].inferences
				sum.cutoffs += want[c].cutoffs
			}
			if g.prefix == 0 {
				continue
			}
			for i, m := range packers {
				got := runCovers(m, func() bool { m.CoversPack(&packs[i], ex, hit, nil); return false })
				for c, r := range g.rules {
					if hit[c] != want[c].covered || packs[i].Charged(c) != want[c].inferences {
						t.Fatalf("%s, budget %+v, novm=%v pack member %s on %s: covered %v charged %d, interpreter alone %+v",
							in.name, b, m.NoVM(), r.String(), ex, hit[c], packs[i].Charged(c), want[c])
					}
				}
				if got != sum {
					t.Fatalf("%s, budget %+v, novm=%v pack of %d on %s: counters moved by %+v, interpreter alone %+v",
						in.name, b, m.NoVM(), len(g.rules), ex, got, sum)
				}
			}
		}
	}
	for _, goals := range in.enums {
		if got, want := enumerate(fast, goals), enumerate(interp, goals); got != want {
			t.Fatalf("%s, budget %+v, enumerating %v:\n       VM %+v\ninterpreter %+v", in.name, b, goals, got, want)
		}
	}
	steps, replayed, filtered := fast.StepsExecuted(), fast.ReplayedInferences(), fast.FilteredCandidates()
	if steps+replayed != fast.TotalInferences() || filtered > steps {
		t.Fatalf("%s, budget %+v: rule by rule, %d steps, %d replayed, %d filtered for %d charged",
			in.name, b, steps, replayed, filtered, fast.TotalInferences())
	}
	pm := packers[0]
	if pm.StepsExecuted()+pm.ReplayedInferences() > pm.TotalInferences() || pm.FilteredCandidates() > pm.StepsExecuted() {
		t.Fatalf("%s, budget %+v: packed, %d steps, %d replayed, %d filtered for %d charged",
			in.name, b, pm.StepsExecuted(), pm.ReplayedInferences(), pm.FilteredCandidates(), pm.TotalInferences())
	}
	if exact.FilteredCandidates() != 0 || exact.ReplayedInferences() != 0 {
		t.Fatalf("%s, budget %+v: exact mode filtered %d candidates and replayed %d charges",
			in.name, b, exact.FilteredCandidates(), exact.ReplayedInferences())
	}
	return fast.reproofs, pm.reproofs
}

// sweep runs in at every MaxInferences from 1 to 3 past its longest proof,
// times every MaxDepth of sweepDepths — so that a cut lands on every charge
// once: inside a filtered run and on the candidate after it, inside a
// replayed segment and on its tail, in a pack's prefix and in its suffixes,
// before anything was recorded and after. Fast, exact and interpreter must
// agree everywhere, and at DefaultBudget nothing is re-proved. It returns the
// re-proofs over the sweep, rule by rule and packed.
func sweep(t *testing.T, in *sweepInput) (alone, packed int64) {
	t.Helper()
	if a, p := sweepBudget(t, in, DefaultBudget); a+p != 0 {
		t.Fatalf("%s, DefaultBudget: %d queries and %d pack members re-proved", in.name, a, p)
	}
	longest := in.longest()
	for maxInf := int64(1); maxInf <= longest+3; maxInf++ {
		for _, d := range sweepDepths {
			a, p := sweepBudget(t, in, Budget{MaxInferences: maxInf, MaxDepth: d})
			alone, packed = alone+a, packed+p
		}
	}
	t.Logf("%s: longest proof %d, %d re-proofs alone, %d packed", in.name, longest, alone, packed)
	return alone, packed
}

// TestExactModeSweep sweeps programs drawn from the differential suite's
// generators; over the sweep something is re-proved, both rule by rule and
// packed.
func TestExactModeSweep(t *testing.T) {
	var alone, packed int64
	for _, seed := range []int64{1, 2, 3} {
		in := genInput(seed, 120)
		a, p := sweep(t, &in)
		alone, packed = alone+a, packed+p
	}
	if !envNoVM && (alone == 0 || packed == 0) {
		t.Errorf("over the sweep %d queries and %d pack members were re-proved: exact mode is not exercised", alone, packed)
	}
}

// TestPackBudgetFallbacks drives each way a budget event can reach a pack
// member through a hand-built program, and pins besides exactness how many
// members went to exact mode: every member still unsatisfied at the pass's
// first budget event, and any whose running sum reached MaxInferences when
// the prefix ran dry. One too few means an event was missed and another
// happened to mask it, one too many that a settled member was proved again.
// Then it sweeps the program.
func TestPackBudgetFallbacks(t *testing.T) {
	kb := packKB(t)
	for _, novm := range []bool{false, true} {
		// No budget event: nothing is re-proved, and the pack really did
		// share the prefix.
		want, reproofs := packCase(t, kb, DefaultBudget, novm, 1, "h(x)",
			"h(X) :- p(Y), ok(Y).", "h(X) :- p(Y), yes(Y).", "h(X) :- p(Y), slow(Y).")
		if reproofs != 0 || !want[0].covered || !want[1].covered || want[2].covered {
			t.Fatalf("novm=%v unbounded: %d re-proofs, stand-alone %+v", novm, reproofs, want)
		}

		// The prefix is cut off before its first solution: p(Y), last(Y)
		// needs 6 + 6 + 1 charges to get there, the budget allows 8.
		want, reproofs = packCase(t, kb, Budget{MaxInferences: 8}, novm, 2, "h(x)",
			"h(X) :- p(Y), last(Y), ok(Y).", "h(X) :- p(Y), last(Y), yes(Y).")
		if reproofs != 2 || want[0].covered || want[0].cutoffs != 1 || want[1].cutoffs != 1 {
			t.Fatalf("novm=%v prefix cut before its first solution: %d re-proofs, stand-alone %+v", novm, reproofs, want)
		}

		// The running sum crosses the budget between two prefix solutions:
		// slow(1) fails after some 20 charges at the first solution of
		// p(Y), ends(Y); the prefix alone reaches its second solution (Y = 6)
		// well inside the budget, slow's member does not. Its sibling done at
		// the first solution is settled; the one after slow is not yet, and
		// goes to exact mode with it.
		want, reproofs = packCase(t, kb, Budget{MaxInferences: 30}, novm, 2, "h(x)",
			"h(X) :- p(Y), ends(Y), slow(Y).", "h(X) :- p(Y), ends(Y), ok(Y).", "h(X) :- p(Y), ends(Y), yes(Y).")
		if reproofs != 2 || want[0].cutoffs != 1 || !want[1].covered || !want[2].covered || want[1].cutoffs+want[2].cutoffs != 0 {
			t.Fatalf("novm=%v sum crossing between solutions: %d re-proofs, stand-alone %+v", novm, reproofs, want)
		}

		// The same crossing with no second solution to notice it at: the
		// prefix p(Y), first(Y) runs dry inside the budget, slow's member's
		// sum is past it by then; its sibling's is not.
		want, reproofs = packCase(t, kb, Budget{MaxInferences: 30}, novm, 2, "h(x)",
			"h(X) :- p(Y), first(Y), slow(Y).", "h(X) :- p(Y), first(Y), yes(Y).")
		if reproofs != 1 || want[0].cutoffs != 1 || want[1].covered || want[1].cutoffs != 0 {
			t.Fatalf("novm=%v sum past the budget at exhaustion: %d re-proofs, stand-alone %+v", novm, reproofs, want)
		}

		// A suffix is cut off: by MaxInferences inside slow(1), and by
		// MaxDepth inside deep(a, Z) — which goes on to succeed, a covered
		// example that still counts as a cutoff query. The sibling tried
		// after it under the same prefix solution is re-proved too, and must
		// not inherit the flag.
		want, reproofs = packCase(t, kb, Budget{MaxInferences: 12}, novm, 1, "h(x)",
			"h(X) :- first(Y), slow(Y).", "h(X) :- first(Y), ok(Y).")
		if reproofs != 2 || want[0].cutoffs != 1 || !want[1].covered || want[1].cutoffs != 0 {
			t.Fatalf("novm=%v suffix cut by MaxInferences: %d re-proofs, stand-alone %+v", novm, reproofs, want)
		}
		want, reproofs = packCase(t, kb, Budget{MaxDepth: 2}, novm, 1, "h(a)",
			"h(X) :- edge(X, Y), deep(X, Z).", "h(X) :- edge(X, Y), at(Y).")
		if reproofs != 2 || !want[0].covered || want[0].cutoffs != 1 || !want[1].covered || want[1].cutoffs != 0 {
			t.Fatalf("novm=%v suffix cut by MaxDepth: %d re-proofs, stand-alone %+v", novm, reproofs, want)
		}

		// MaxDepth in the prefix, before its first solution: deep(a, Y)
		// abandons the recursive branch at depth 2 and then finds Y = b by
		// its second clause. Both members that succeed there are cutoff
		// queries stand-alone and must be in the pack; so is the one that
		// fails.
		want, reproofs = packCase(t, kb, Budget{MaxDepth: 2}, novm, 1, "h(a)",
			"h(X) :- deep(X, Y), at(Y).", "h(X) :- deep(X, Y), on(Y).", "h(X) :- deep(X, Y), off(Y).")
		if reproofs != 3 || !want[0].covered || !want[1].covered || want[2].covered ||
			want[0].cutoffs != 1 || want[1].cutoffs != 1 || want[2].cutoffs != 1 {
			t.Fatalf("novm=%v MaxDepth in the prefix before a solution: %d re-proofs, stand-alone %+v", novm, reproofs, want)
		}

		// MaxDepth in the prefix after its last solution: shallow(a, Y)
		// yields Y = b first and only then descends into the cut. The member
		// satisfied at b stopped before the cut and is not a cutoff query;
		// the unsatisfied one saw it.
		want, reproofs = packCase(t, kb, Budget{MaxDepth: 2}, novm, 1, "h(a)",
			"h(X) :- shallow(X, Y), at(Y).", "h(X) :- shallow(X, Y), off(Y).")
		if reproofs != 1 || !want[0].covered || want[0].cutoffs != 0 || want[1].covered || want[1].cutoffs != 1 {
			t.Fatalf("novm=%v MaxDepth in the prefix after its last solution: %d re-proofs, stand-alone %+v", novm, reproofs, want)
		}
	}

	in := packInput(t)
	if _, packed := sweep(t, &in); packed == 0 {
		t.Error("over the sweep no pack member was re-proved")
	}
}

// TestMemoBudgetSweep sweeps memoRules over a stream of examples that
// repeats every ground call, so that cuts land inside replayed segments and
// on their tails; at DefaultBudget a good share of the charges must be
// replays, or the sweep would test none.
func TestMemoBudgetSweep(t *testing.T) {
	free := memoCase(t, memoKB(t), DefaultBudget, memoRules, "h(d1)", "h(d2)", "h(d1)", "h(d2)")
	if !envNoVM && free.ReplayedInferences()*3 < free.TotalInferences() {
		t.Fatalf("unbounded, %d of %d charges replayed: the sweep would test no replay", free.ReplayedInferences(), free.TotalInferences())
	}
	in := memoInput(t)
	if alone, packed := sweep(t, &in); !envNoVM && (alone == 0 || packed == 0) {
		t.Errorf("over the sweep %d stand-alone and %d packed queries were re-proved: exact mode is not exercised", alone, packed)
	}
}

// TestMemoDepthGuard: g(a) is recorded at depth 0 and then called again at
// depth 3 through three wrappers. Under MaxDepth 6 its fact lookup at depth
// 6 is cut off — the guard flags the budget, and the exact re-proof reports
// a cutoff query with no proof — and under MaxDepth 7 it may replay. The same
// for a subtree whose deepest frame is a negation's sub-proof. Then it sweeps
// the program over every depth of the sweep.
func TestMemoDepthGuard(t *testing.T) {
	kb := depthKB(t)
	rules := []string{"h(X) :- g(X).", "h(X) :- w1(X)."}
	m := memoCase(t, kb, Budget{MaxDepth: 6}, rules, "h(a)", "h(a)")
	if m.CutoffQueries() != 2 {
		t.Fatalf("MaxDepth 6: %d cutoff queries, want the two through the wrappers", m.CutoffQueries())
	}
	if !envNoVM && m.ReplayedInferences() == 0 {
		t.Fatal("MaxDepth 6: g(a) was never replayed at depth 0")
	}
	m = memoCase(t, kb, Budget{MaxDepth: 7}, rules, "h(a)", "h(a)")
	if m.CutoffQueries() != 0 {
		t.Fatalf("MaxDepth 7: %d cutoff queries", m.CutoffQueries())
	}

	// n(a)'s \+ bad(a) proves bad(a) a level below the negation itself.
	// Called at depth 2 under MaxDepth 4 that proof is cut, and the cut lets
	// the negation, and so n(a), succeed — in a cutoff query.
	m = memoCase(t, kb, Budget{MaxDepth: 4}, []string{"h(X) :- n(X).", "h(X) :- v1(X)."}, "h(a)", "h(a)")
	if m.CutoffQueries() != 2 {
		t.Fatalf("MaxDepth 4: %d cutoff queries, want the two through the wrappers", m.CutoffQueries())
	}

	in := depthInput(t)
	if alone, _ := sweep(t, &in); !envNoVM && alone == 0 {
		t.Error("over the sweep no query was re-proved")
	}
}

// TestBulkChargeMatchesPerCandidate sweeps the bucket program, whose cuts
// land inside each skipped run, on the candidate after it and below a
// matched candidate, with each rule proved alone and in one QueryPack whose
// prefix and suffixes both scan the bucket, and the bucket enumerated by
// Solve. Unbounded, the VM must filter and the interpreter must not.
func TestBulkChargeMatchesPerCandidate(t *testing.T) {
	in := bulkInput(t)
	for _, novm := range []bool{false, true} {
		m := NewMachine(in.kb, DefaultBudget)
		m.SetNoVM(novm)
		var covered []bool
		for _, r := range in.groups[0].rules {
			var q Query
			m.CompileQuery(&q, r)
			covered = append(covered, m.CoversQuery(&q, in.groups[0].examples[0]))
		}
		if fmt.Sprint(covered) != "[true true true false false]" {
			t.Fatalf("novm=%v: unbounded outcomes %v are not what the sweep was built around", novm, covered)
		}
		f := m.FilteredCandidates()
		if novm && f != 0 {
			t.Fatalf("the interpreter reports %d filtered candidates", f)
		}
		if !novm && !envNoVM && f == 0 {
			t.Fatal("the VM filtered nothing: the bucket is not keyed")
		}
	}
	if alone, packed := sweep(t, &in); !envNoVM && (alone == 0 || packed == 0) {
		t.Errorf("over the sweep %d stand-alone and %d packed queries were re-proved: exact mode is not exercised", alone, packed)
	}
}
