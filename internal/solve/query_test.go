package solve

import (
	"testing"

	"repro/internal/logic"
)

// coverRun is one coverage query's observable outcome.
type coverRun struct {
	covered    bool
	inferences int64
	cutoffs    int64
}

func runCovers(m *Machine, cover func() bool) coverRun {
	inf, cut := m.TotalInferences(), m.CutoffQueries()
	ok := cover()
	return coverRun{ok, m.TotalInferences() - inf, m.CutoffQueries() - cut}
}

// TestQueryRecompilesOnProgramChange pins the program-identity check: a
// held Query whose machine has since moved to another compiled program — the
// KB grew or was swapped — must answer and charge
// exactly as the oracle does, never run its stale dispatch.
func TestQueryRecompilesOnProgramChange(t *testing.T) {
	const src = `
		edge(a, b). edge(b, c).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`
	rule := logic.MustParseClause("linked(X, Y) :- path(X, Y), marked(Y).")
	ex := logic.MustParseTerm("linked(a, d)")

	fresh := func(kb *KB) coverRun { return newRefMachine(kb, DefaultBudget).run(&rule, ex) }
	check := func(what string, m *Machine, q *Query, want coverRun) {
		t.Helper()
		for i := 0; i < 2; i++ { // the second run re-detects the stale query
			if got := runCovers(m, func() bool { return m.CoversQuery(q, ex) }); got != want {
				t.Fatalf("%s: held query %+v, oracle %+v", what, got, want)
			}
		}
	}

	kb := kbFrom(t, src)
	m := NewMachine(kb, DefaultBudget)
	var q Query
	m.CompileQuery(&q, &rule)
	// marked/1 does not exist yet: the compiled form dispatches it to
	// unknownPred, and nothing is covered.
	if want := fresh(kb); want.covered {
		t.Fatal("covered before marked/1 exists")
	} else {
		check("initial", m, &q, want)
	}

	// KB.Add: new facts make the example covered and add a predicate the
	// stale frames know nothing about.
	kb.Add(logic.MustParseClause("edge(c, d)."))
	kb.Add(logic.MustParseClause("marked(d)."))
	want := fresh(kb)
	if !want.covered {
		t.Fatal("not covered after KB.Add")
	}
	check("after KB.Add", m, &q, want)

	// SetKB to a clone that diverges: the clone's program is another
	// object even before it changes, and then it loses nothing but gains a
	// shortcut that changes the inference count.
	clone := kb.Clone()
	clone.Add(logic.MustParseClause("path(a, d)."))
	m.SetKB(clone)
	want = fresh(clone)
	if !want.covered || want == fresh(kb) {
		t.Fatalf("clone should change the charge: %+v", want)
	}
	check("after SetKB", m, &q, want)

	// Recompiling queries never recompiles a KB: one build per KB version
	// (kb was compiled before and after its Adds, the clone once).
	if n := kb.Compilations(); n != 2 {
		t.Fatalf("kb compiled %d times, want 2", n)
	}
	if n := clone.Compilations(); n != 1 {
		t.Fatalf("clone compiled %d times, want 1", n)
	}
}

// TestCoversQueryAllocFree pins the steady-state allocation contract: a held
// query — its ground call replayed from the memo — CoversExample through the
// machine's scratch query, and recompiling one Query buffer per rule all
// allocate nothing. So do the held queries the benchmarks time: plain fact
// lookups, a bucket scan the candidate filter prunes, and ground calls
// replayed from a warm memo.
func TestCoversQueryAllocFree(t *testing.T) {
	for _, c := range []struct {
		name, rule string
		kb         *KB
		replays    bool // every warm run replays a ground call
	}{
		{"facts", benchFactsRule, benchKB(2000), false},
		{"bucket scan", benchBucketRule, benchBucketKB(), false},
		{"ground call", benchGroundRule, benchGroundKB(), true},
	} {
		m := NewMachine(c.kb, DefaultBudget)
		rule := logic.MustParseClause(c.rule)
		ex := logic.MustParseTerm("active(m7)")
		var q Query
		m.CompileQuery(&q, &rule)
		if !m.CoversQuery(&q, ex) {
			t.Fatalf("%s: not covered", c.name)
		}
		replayed := m.ReplayedInferences()
		if n := testing.AllocsPerRun(50, func() { m.CoversQuery(&q, ex) }); n != 0 {
			t.Errorf("%s: CoversQuery allocates %v per call", c.name, n)
		}
		if c.replays && m.ReplayedInferences()-replayed < 50 {
			t.Errorf("%s: the measured runs replayed %d inferences", c.name, m.ReplayedInferences()-replayed)
		}
	}

	kb := benchRuleKB(200)
	rules := []logic.Clause{
		logic.MustParseClause("active(M) :- heavy(M), linked(M, A, B)."),
		logic.MustParseClause("active(M) :- atm(M, A, carbon, T, C), bond(M, A, B, 1), \\+ring3(M)."),
		logic.MustParseClause("active(m7)."),
	}
	ex := logic.MustParseTerm("active(m7)")
	m := NewMachine(kb, DefaultBudget)
	var q Query
	m.CompileQuery(&q, &rules[0])
	if !m.CoversQuery(&q, ex) {
		t.Fatal("not covered")
	}
	replayed := m.ReplayedInferences()
	if n := testing.AllocsPerRun(50, func() { m.CoversQuery(&q, ex) }); n != 0 {
		t.Errorf("CoversQuery allocates %v per call", n)
	}
	// heavy(m7) is a ground call to a rule: with the memo warm, every
	// measured run replays it.
	if m.ReplayedInferences()-replayed < 50 {
		t.Errorf("the measured runs replayed %d inferences", m.ReplayedInferences()-replayed)
	}
	if n := testing.AllocsPerRun(50, func() { m.CoversExample(&rules[0], ex) }); n != 0 {
		t.Errorf("CoversExample allocates %v per call", n)
	}
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		m.CompileQuery(&q, &rules[i%len(rules)])
		m.CoversQuery(&q, ex)
		i++
	}); n != 0 {
		t.Errorf("recompiling per rule allocates %v per rule", n)
	}
}
