package search

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/solve"
)

// TestParallelEvaluatorMatchesSerial: the pooled evaluator and the serial
// one both answer as proving each rule alone does, masked or not, alive
// positives or all of them.
func TestParallelEvaluatorMatchesSerial(t *testing.T) {
	fx := newFixture(t)
	ref := solve.NewMachine(fx.kb, solve.DefaultBudget)
	subsets := [][]int32{nil, {0}, {1}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}
	for _, workers := range []int{1, 2, 3, 8} {
		pe := NewParallelEvaluator(fx.kb, fx.ex, solve.DefaultBudget, workers)
		defer pe.Close()
		if pe.Workers() != workers {
			t.Fatalf("workers = %d, want %d", pe.Workers(), workers)
		}
		for _, ix := range subsets {
			if !validIndices(ix, len(fx.bot.Lits)) {
				continue
			}
			rule := fx.bot.Materialize(ix)
			want := ProveAlone(ref, fx.ex, &rule, nil, nil, false)
			// Candidate-masked evaluation must agree too.
			masked := ProveAlone(ref, fx.ex, &rule, want.Pos, want.Neg, false)
			full := ProveAlone(ref, fx.ex, &rule, nil, nil, true)
			for _, ev := range []FullCoverer{fx.ev, pe} {
				gotPos, gotNeg := ev.Coverage(&rule, nil, nil)
				assertSameBits(t, "pos", want.Pos, gotPos)
				assertSameBits(t, "neg", want.Neg, gotNeg)
				gotPos, gotNeg = ev.Coverage(&rule, want.Pos, want.Neg)
				assertSameBits(t, "pos-masked", masked.Pos, gotPos)
				assertSameBits(t, "neg-masked", masked.Neg, gotNeg)
				gotPos, gotNeg = ev.CoverageFull(&rule)
				assertSameBits(t, "pos-full", full.Pos, gotPos)
				assertSameBits(t, "neg-full", full.Neg, gotNeg)
			}
		}
	}
}

func TestParallelEvaluatorRespectsAliveMask(t *testing.T) {
	fx := newFixture(t)
	pe := NewParallelEvaluator(fx.kb, fx.ex, solve.DefaultBudget, 3)
	defer pe.Close()
	rule := fx.bot.Materialize([]int32{0, 1, 2})
	// Retract half the positives; Coverage must honor the alive mask while
	// CoverageFull ignores it.
	retract := NewBitset(len(fx.ex.Pos))
	retract.Set(0)
	retract.Set(2)
	fx.ex.RetractPos(retract)
	ref := solve.NewMachine(fx.kb, solve.DefaultBudget)
	gotPos, _ := pe.Coverage(&rule, nil, nil)
	assertSameBits(t, "pos-after-retract", ProveAlone(ref, fx.ex, &rule, nil, nil, false).Pos, gotPos)
	if gotPos.Get(0) || gotPos.Get(2) {
		t.Fatal("retracted positives reported as covered")
	}
	fullG, _ := pe.CoverageFull(&rule)
	assertSameBits(t, "full-after-retract", ProveAlone(ref, fx.ex, &rule, nil, nil, true).Pos, fullG)
	if !fullG.Get(0) {
		t.Fatal("CoverageFull must ignore the alive mask")
	}
}

func TestParallelEvaluatorDeterministicAccounting(t *testing.T) {
	run := func() int64 {
		fx := newFixture(t)
		pe := NewParallelEvaluator(fx.kb, fx.ex, solve.DefaultBudget, 4)
		defer pe.Close()
		for _, ix := range [][]int32{nil, {0}, {0, 1}, {0, 1, 2}} {
			rule := fx.bot.Materialize(ix)
			pe.Coverage(&rule, nil, nil)
			pe.CoverageFull(&rule)
		}
		return pe.OwnInferences()
	}
	a, b := run(), run()
	if a == 0 {
		t.Fatal("no inferences recorded")
	}
	if a != b {
		t.Fatalf("inference accounting not deterministic: %d vs %d", a, b)
	}
}

// TestLearnRuleSameWithParallelCoverer runs the full rule search with both
// coverers and requires identical outcomes.
func TestLearnRuleSameWithParallelCoverer(t *testing.T) {
	fx := newFixture(t)
	st := Settings{MaxClauseLen: 3, MinPrec: 0.9}
	serial := LearnRule(fx.ev, fx.bot, nil, st)
	pe := NewParallelEvaluator(fx.kb, fx.ex, solve.DefaultBudget, 4)
	defer pe.Close()
	par := LearnRule(pe, fx.bot, nil, st)
	if serial.Generated != par.Generated {
		t.Fatalf("generated: serial %d, parallel %d", serial.Generated, par.Generated)
	}
	if len(serial.Good) != len(par.Good) {
		t.Fatalf("good rules: serial %d, parallel %d", len(serial.Good), len(par.Good))
	}
	for i := range serial.Good {
		sc := serial.Good[i].Materialize(fx.bot).Canonical()
		pc := par.Good[i].Materialize(fx.bot).Canonical()
		if sc.String() != pc.String() {
			t.Fatalf("good[%d]: serial %s, parallel %s", i, sc, pc)
		}
		assertSameBits(t, "good-pos", serial.Good[i].PosCover(), par.Good[i].PosCover())
	}
}

// TestCoverageSharesCompiledProgram pins the compile-once contract at the
// search layer: the fixture machine, the serial evaluator and every
// ParallelEvaluator shard prove against one KB, so across all of them the
// bytecode compiler runs exactly once per KB load.
func TestCoverageSharesCompiledProgram(t *testing.T) {
	fx := newFixture(t)
	if solve.NewMachine(fx.kb, solve.DefaultBudget).NoVM() {
		t.Skip("ILP_NOVM set; nothing compiles")
	}
	rule := fx.bot.Materialize([]int32{0, 1, 2})
	fx.ev.Coverage(&rule, nil, nil)
	for _, workers := range []int{2, 4, 8} {
		pe := NewParallelEvaluator(fx.kb, fx.ex, solve.DefaultBudget, workers)
		pe.Coverage(&rule, nil, nil)
		pe.CoverageFull(&rule)
		pe.Close()
	}
	fc := NewFullCoverer(fx.m, fx.ex, solve.DefaultBudget, 4)
	fc.Coverage(&rule, nil, nil)
	fc.Close()
	if n := fx.kb.Compilations(); n != 1 {
		t.Fatalf("shared KB compiled %d times across coverers, want 1", n)
	}
}

func assertSameBits(t *testing.T, what string, want, got Bitset) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: word %d differs: %064b vs %064b", what, i, want[i], got[i])
		}
	}
}

// TestCoverageCompilesOncePerRule pins the batch contract of the compiled
// query: every coverage entry point, serial and parallel, compiles each rule
// exactly once per call however many examples it tests — on the wide task
// the parallel batches cross parallelThreshold, so all shards run the one
// shared Query — and a per-example CoversExample left behind would show up
// as one compilation per test.
func TestCoverageCompilesOncePerRule(t *testing.T) {
	kb, ex, wide := benchWideExamples(t, 512)
	narrow := logic.MustParseClause("active(M) :- atm(M, A, oxygen).")
	rules := []*logic.Clause{&wide, &narrow, &wide}
	masks := []Bitset{nil, FullBitset(len(ex.Pos)), nil}

	type call struct {
		name  string
		rules int64
		run   func()
	}
	calls := func(ev interface {
		BatchCoverer
		FullCoverer
	}) []call {
		return []call{
			{"Coverage", 1, func() { ev.Coverage(&wide, nil, nil) }},
			{"Coverage masked", 1, func() { ev.Coverage(&wide, masks[1], nil) }},
			{"CoverageFull", 1, func() { ev.CoverageFull(&wide) }},
			{"CoverageBatch", 3, func() { ev.CoverageBatch(rules, masks, nil) }},
			{"CoverageFullBatch", 3, func() { ev.CoverageFullBatch(rules) }},
		}
	}

	m := solve.NewMachine(kb, solve.DefaultBudget)
	for _, c := range calls(NewEvaluator(m, ex)) {
		before := m.QueryCompilations()
		c.run()
		if got := m.QueryCompilations() - before; got != c.rules {
			t.Errorf("serial %s: %d compilations, want %d", c.name, got, c.rules)
		}
	}

	pe := NewParallelEvaluator(kb, ex, solve.DefaultBudget, 4)
	defer pe.Close()
	compilations := func() (n int64) {
		for _, sm := range pe.machines {
			n += sm.QueryCompilations()
		}
		return n
	}
	for _, c := range calls(pe) {
		before, wakesBefore := compilations(), pe.statWakes
		c.run()
		if got := compilations() - before; got != c.rules {
			t.Errorf("parallel %s: %d compilations across shards, want %d", c.name, got, c.rules)
		}
		if pe.statWakes == wakesBefore {
			t.Errorf("parallel %s did not wake the pool", c.name)
		}
	}
}

// TestEvaluatorRecompileAllocFree: the evaluator's query buffer is reused
// from rule to rule, so compiling the next candidate allocates nothing.
func TestEvaluatorRecompileAllocFree(t *testing.T) {
	fx := newFixture(t)
	rng := rand.New(rand.NewSource(5))
	rules := make([]logic.Clause, 16)
	for i := range rules {
		rules[i] = randomRuleFrom(fx, rng)
	}
	for i := range rules {
		fx.ev.compile(&rules[i]) // size the buffers for the longest rule
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		q := fx.ev.compile(&rules[i%len(rules)])
		fx.m.CoversQuery(q, fx.ex.Pos[0])
		i++
	}); n != 0 {
		t.Fatalf("compiling the next rule allocates %v per rule", n)
	}
}
