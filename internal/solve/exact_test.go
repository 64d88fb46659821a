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
// proof reports. So each test sweeps its own program (sweep, oracle_test.go):
// every proof is cut at every charge and at every depth, and every entry
// point must answer as the oracle does, question by question and pack member
// by pack member.

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
func packInput(t *testing.T) oracleInput {
	return oracleInput{name: "packs", kb: packKB(t), groups: []oracleGroup{
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

func memoInput(t *testing.T) oracleInput {
	return oracleInput{name: "memo", kb: memoKB(t), groups: []oracleGroup{group(1, "h(d1) h(d2) h(d1)", memoRules...)}}
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

func depthInput(t *testing.T) oracleInput {
	return oracleInput{name: "memo depth", kb: depthKB(t), groups: []oracleGroup{
		group(1, "h(a) h(a)", "h(X) :- g(X)."),
		group(1, "h(a) h(a)", "h(X) :- w1(X)."),
		group(1, "h(a) h(a)", "h(X) :- n(X)."),
		group(1, "h(a) h(a)", "h(X) :- v1(X)."),
	}}
}

// suffixKB is suffixInput's program: ground calls with solutions and
// without (polar_gte), a cyclic one (loop) and one with more than
// memoMaxSolutions solutions (many), whose entries are disabled, and one
// (deepish) whose recorded depth, two levels below the call, comes from a
// builtin that fails there: under MaxDepth 2 the recorded-depth guard fires
// although the live call is not cut. A suffix goal sits at depth 0, so that
// guard is the only depth check the in-place path makes.
func suffixKB(t *testing.T) *KB {
	return kbFrom(t, `
		level(1). level(2). level(3).
		polar(g1, 3). polar(g2, 1). polar(g3, 2).
		subst(d1, p1, g1). subst(d1, p2, g2). subst(d2, p1, g3). subst(d2, p2, g2). subst(d3, p1, g2).
		polar_gte(G, L) :- polar(G, V), level(L), V >= L.
		link(g1, g2). link(g2, g1).
		loop(G) :- polar(G, 1).
		loop(G) :- link(G, H), loop(H).
		many(G) :- polar(G, V), level(A), level(B), level(C), level(D).
		deepish(G) :- deeper(G).
		deeper(G) :- G = zz, polar(G, 1).
	`)
}

// suffixInput asks packs whose every member's suffix is one goal, run in
// place (QueryPack.stepSuffix): ground calls that replay a solution and that
// replay none, recorded on their first call and replayed on the repeated
// examples; disabled entries, which run live; a suffix with an argument the
// prefix leaves unbound, which steps; and the recorded-depth guard. The
// sweep cuts each at its own charge, inside its replayed segment and on its
// tail, and at every depth.
func suffixInput(t *testing.T) oracleInput {
	return oracleInput{name: "one-goal suffixes", kb: suffixKB(t), groups: []oracleGroup{
		group(1, "h(d1) h(d2) h(d3) h(d1) h(d2)",
			"h(D) :- subst(D, P, G), polar_gte(G, 2).",
			"h(D) :- subst(D, P, G), polar_gte(G, 3).",
			"h(D) :- subst(D, P, G), polar_gte(G, L).",
			"h(D) :- subst(D, P, G), loop(G).",
			"h(D) :- subst(D, P, G), many(G).",
			"h(D) :- subst(D, P, G), deepish(G).",
		),
		group(2, "h(d1) h(d2) h(d3)",
			"h(D) :- subst(D, P, G), polar(G, V), polar_gte(G, V).",
			"h(D) :- subst(D, P, G), polar(G, V), polar_gte(G, 3).",
		),
	}}
}

// streamKB is streamInput's program. a/2 holds ground facts whose
// arguments are atoms, numbers (2 and 2.0 are one index key) and compounds
// (which no index holds, so those facts sit in every list of their switch
// unindexed, to be matched in full); p/2 the same number twice, as an Int
// and as a Float; r/2 and s/3 non-ground facts among ground ones, in a
// switch's buckets and unindexed.
func streamKB(t *testing.T) *KB {
	return kbFrom(t, `
		a(k, 1). a(k, 2.0). a(k, x). a(j, 2). a(g(k), 2). a(g(z), 5).
		a(k, g(x)). a(g(k), g(x)). a(q, q).
		chk :- a(j, 2.0), a(g(k), 2), s(j, c, c).
		p(1, 1.0). p(1.0, 1). p(a, b).
		r(X, X). r(a, b).
		s(k, b, b). s(k, X, X). s(k, b, c). s(j, c, c). s(X, c, X).
	`)
}

// streamInput drives each way a fact's one head stream is read. Ground goals
// read a ground fact's stream as equality: through the first-argument switch
// (a(j, 2.0), p(1.0, 1.0), s(j, c, c)), the second (a(k, 2), a(k, x), and
// a(k, 5), which only a candidate's own skip keeps from matching the
// unindexed a(k, g(x))) and none (a(g(k), g(x))); ground compounds compare
// in both modes. Non-ground goals bind through it: a(j, N) skips its
// stream's first instruction and reuses the index walk of N in the second;
// a(X, X) meets a(k, 1) first, where the second instruction must walk X
// again. Solve binds X in p(X, X) to the first argument's number, an Int for
// p(1, 1.0) and a Float for p(1.0, 1). The non-ground facts bind a repeated
// variable with and without a skip.
func streamInput(t *testing.T) oracleInput {
	enum := func(src string) []logic.Literal { return logic.MustParseClause("all :- " + src + ".").Body }
	return oracleInput{name: "head streams", kb: streamKB(t), groups: []oracleGroup{
		group(0, "h(e)",
			"h(E) :- a(j, 2.0).",
			"h(E) :- a(k, 2).",
			"h(E) :- a(k, x).",
			"h(E) :- a(k, 5).",
			"h(E) :- a(g(k), g(x)).",
			"h(E) :- a(g(k), 2).",
			"h(E) :- a(j, 1).",
			"h(E) :- p(1.0, 1.0).",
			"h(E) :- a(j, N), N > 1.",
			"h(E) :- a(X, X).",
			"h(E) :- a(g(X), Y), a(X, Y).",
			"h(E) :- chk.",
			"h(E) :- r(b, b).",
			"h(E) :- s(k, Y, c), s(j, c, Y).",
		),
		group(1, "h(k) h(j) h(q)",
			"h(X) :- a(X, Y), a(k, Y).",
			"h(X) :- a(X, Y), p(Y, Y).",
			"h(X) :- a(X, Y), a(g(X), Y).",
		),
	}, enums: [][]logic.Literal{
		enum("p(X, X)"), enum("p(X, 1)"), enum("p(1.0, X)"), enum("a(X, X)"), enum("a(k, Y)"),
		enum("a(g(X), Y)"), enum("r(a, Y)"), enum("r(Y, b)"), enum("s(k, Y, Y)"), enum("s(k, b, Z)"),
		enum("s(Y, c, Z)"),
	}}
}

// bulkInput: one 20-fact first-argument bucket of w/4 in which the goal
// w(k, X, red, 1) matches facts 4, 5 and 12 — a rejected run of four at the
// head of the bucket, of six in the middle, of seven at the tail — with
// enough below each match for a budget to run out there as well.
func bulkInput(t *testing.T) oracleInput {
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
	return oracleInput{name: "filter", kb: kbFrom(t, src.String()), groups: []oracleGroup{group(1, "h(e)",
		"h(E) :- w(k, X, red, 1), good(X).",
		"h(E) :- w(k, X, red, 1), w(k, Y, blue, 2), last(Y), good(X).",
		"h(E) :- w(k, X, red, 1), twin(X), good(X).",
		"h(E) :- w(k, X, red, 1), w(k, X, green, N).",
		"h(E) :- w(k, X, red, 1), w(k, Y, C, 1), Y \\= X, nosuch(Y).",
	)}, enums: [][]logic.Literal{logic.MustParseClause("all(X, Y) :- w(k, X, red, N), w(k, Y, C, 3), fine(X).").Body}}
}

// TestExactModeSweep sweeps questions drawn from the differential suite's
// generators; over the sweep something is re-proved, both rule by rule and
// packed.
func TestExactModeSweep(t *testing.T) {
	t.Parallel()
	var use fastUse
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		in := oracleInput{name: fmt.Sprintf("genProgram seed %d", seed), kb: genProgram(rng)}
		genQuestions(rng, &in, 8, 4, 4, 3, 120)
		use.Add(sweep(t, &in))
	}
	if use.Alone == 0 || use.Packed == 0 {
		t.Errorf("over the sweep %d queries and %d pack members were re-proved: exact mode is not exercised", use.Alone, use.Packed)
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
	t.Parallel()
	kb := packKB(t)
	for _, c := range []struct {
		why    string
		budget Budget
		prefix int
		ex     string
		rules  []string
		want   string // per member: + covered or - not, and its cutoffs
		redone int64  // members re-proved
	}{
		// No budget event: nothing is re-proved.
		{"unbounded", DefaultBudget, 1, "h(x)", []string{"h(X) :- p(Y), ok(Y).", "h(X) :- p(Y), yes(Y).", "h(X) :- p(Y), slow(Y)."}, "+0 +0 -0", 0},
		// p(Y), last(Y) needs 6 + 6 + 1 charges to get to its first
		// solution, the budget allows 8.
		{"prefix cut before its first solution", Budget{MaxInferences: 8}, 2, "h(x)", []string{"h(X) :- p(Y), last(Y), ok(Y).", "h(X) :- p(Y), last(Y), yes(Y)."}, "-1 -1", 2},
		// slow(1) fails after some 20 charges at the first solution of
		// p(Y), ends(Y); the prefix alone reaches its second solution (Y = 6)
		// well inside the budget, slow's member does not. Its sibling done
		// at the first solution is settled; the one after slow is not yet,
		// and goes to exact mode with it.
		{"sum crossing between solutions", Budget{MaxInferences: 30}, 2, "h(x)", []string{"h(X) :- p(Y), ends(Y), slow(Y).", "h(X) :- p(Y), ends(Y), ok(Y).", "h(X) :- p(Y), ends(Y), yes(Y)."}, "-1 +0 +0", 2},
		// The same crossing with no second solution to notice it at: the
		// prefix runs dry inside the budget, slow's member's sum is past it
		// by then; its sibling's is not.
		{"sum past the budget at exhaustion", Budget{MaxInferences: 30}, 2, "h(x)", []string{"h(X) :- p(Y), first(Y), slow(Y).", "h(X) :- p(Y), first(Y), yes(Y)."}, "-1 -0", 1},
		// A suffix is cut off: by MaxInferences inside slow(1), and by
		// MaxDepth inside deep(a, Z) — which goes on to succeed, a covered
		// example that still counts as a cutoff query. The sibling tried
		// after it under the same prefix solution is re-proved too, and must
		// not inherit the flag.
		{"suffix cut by MaxInferences", Budget{MaxInferences: 12}, 1, "h(x)", []string{"h(X) :- first(Y), slow(Y).", "h(X) :- first(Y), ok(Y)."}, "-1 +0", 2},
		{"suffix cut by MaxDepth", Budget{MaxDepth: 2}, 1, "h(a)", []string{"h(X) :- edge(X, Y), deep(X, Z).", "h(X) :- edge(X, Y), at(Y)."}, "+1 +0", 2},
		// slow(1), a one-goal suffix answered from the ground-call memo on
		// the VM, fails after some 20 charges at each of the prefix's two
		// solutions; the second time its tail crosses the budget. yes(6),
		// tried after it, would be satisfied there, but the pass stops at
		// the event and it goes to exact mode with slow's member.
		{"one-goal suffix's tail crossing the budget", Budget{MaxInferences: 35}, 1, "h(x)", []string{"h(X) :- ends(Y), slow(1).", "h(X) :- ends(Y), yes(Y)."}, "-1 +0", 2},
		// deep(a, Y) abandons the recursive branch at depth 2 and then finds
		// Y = b by its second clause. Both members that succeed there are
		// cutoff queries stand-alone and must be in the pack; so is the one
		// that fails.
		{"MaxDepth in the prefix before a solution", Budget{MaxDepth: 2}, 1, "h(a)", []string{"h(X) :- deep(X, Y), at(Y).", "h(X) :- deep(X, Y), on(Y).", "h(X) :- deep(X, Y), off(Y)."}, "+1 +1 -1", 3},
		// shallow(a, Y) yields Y = b first and only then descends into the
		// cut. The member satisfied at b stopped before the cut and is not a
		// cutoff query; the unsatisfied one saw it.
		{"MaxDepth in the prefix after its last solution", Budget{MaxDepth: 2}, 1, "h(a)", []string{"h(X) :- shallow(X, Y), at(Y).", "h(X) :- shallow(X, Y), off(Y)."}, "+0 -1", 1},
	} {
		want, redone := packCase(t, kb, c.budget, c.prefix, c.ex, c.rules...)
		var got []string
		for _, w := range want {
			got = append(got, fmt.Sprintf("%c%d", "-+"[btoi(w.covered)], w.cutoffs))
		}
		if strings.Join(got, " ") != c.want || redone != c.redone {
			t.Errorf("%s: the oracle says %v, the pack re-proved %d; want %s and %d", c.why, got, redone, c.want, c.redone)
		}
	}

	in := packInput(t)
	if use := sweep(t, &in); use.Packed == 0 {
		t.Error("over the sweep no pack member was re-proved")
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestMemoBudgetSweep sweeps memoRules over a stream of examples that
// repeats every ground call, so that cuts land inside replayed segments and
// on their tails; at DefaultBudget a good share of the charges must be
// replays, or the sweep would test none.
func TestMemoBudgetSweep(t *testing.T) {
	t.Parallel()
	free := memoCase(t, memoKB(t), DefaultBudget, memoRules, "h(d1)", "h(d2)", "h(d1)", "h(d2)")
	if free.cold.Replayed*3 < free.total().inferences {
		t.Fatalf("unbounded, %d of %d charges replayed: the sweep would test no replay", free.cold.Replayed, free.total().inferences)
	}
	in := memoInput(t)
	if use := sweep(t, &in); use.Alone == 0 || use.Packed == 0 {
		t.Errorf("over the sweep %d stand-alone and %d packed queries were re-proved: exact mode is not exercised", use.Alone, use.Packed)
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
	run := memoCase(t, kb, Budget{MaxDepth: 6}, rules, "h(a)", "h(a)")
	if run.total().cutoffs != 2 {
		t.Fatalf("MaxDepth 6: %d cutoff queries, want the two through the wrappers", run.total().cutoffs)
	}
	if run.cold.Replayed == 0 {
		t.Fatal("MaxDepth 6: g(a) was never replayed at depth 0")
	}
	run = memoCase(t, kb, Budget{MaxDepth: 7}, rules, "h(a)", "h(a)")
	if run.total().cutoffs != 0 {
		t.Fatalf("MaxDepth 7: %d cutoff queries", run.total().cutoffs)
	}

	// n(a)'s \+ bad(a) proves bad(a) a level below the negation itself.
	// Called at depth 2 under MaxDepth 4 that proof is cut, and the cut lets
	// the negation, and so n(a), succeed — in a cutoff query.
	run = memoCase(t, kb, Budget{MaxDepth: 4}, []string{"h(X) :- n(X).", "h(X) :- v1(X)."}, "h(a)", "h(a)")
	if run.total().cutoffs != 2 {
		t.Fatalf("MaxDepth 4: %d cutoff queries, want the two through the wrappers", run.total().cutoffs)
	}

	in := depthInput(t)
	if use := sweep(t, &in); use.Alone == 0 {
		t.Error("over the sweep no query was re-proved")
	}
}

// TestBulkChargeMatchesPerCandidate sweeps the bucket program, whose cuts
// land inside each skipped run, on the candidate after it and below a
// matched candidate, with each rule proved alone and in one QueryPack whose
// prefix and suffixes both scan the bucket, and the bucket enumerated by
// Solve. Unbounded, the VM must filter.
func TestBulkChargeMatchesPerCandidate(t *testing.T) {
	t.Parallel()
	in := bulkInput(t)
	free := proverMatchesOracle(t, &in, DefaultBudget)
	var covered []bool
	for _, w := range free.want[0][0] {
		covered = append(covered, w.covered)
	}
	if fmt.Sprint(covered) != "[true true true false false]" {
		t.Fatalf("unbounded outcomes %v are not what the sweep was built around", covered)
	}
	if free.cold.Filtered == 0 {
		t.Fatal("the VM filtered nothing: the bucket is not keyed")
	}
	if use := sweep(t, &in); use.Alone == 0 || use.Packed == 0 {
		t.Errorf("over the sweep %d stand-alone and %d packed queries were re-proved: exact mode is not exercised", use.Alone, use.Packed)
	}
}
