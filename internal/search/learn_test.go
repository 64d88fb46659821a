package search

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/solve"
)

// equalIndices reports element-wise equality of two index lists.
func equalIndices(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSettingsDefaults(t *testing.T) {
	s := Settings{}.WithDefaults()
	if s.MaxClauseLen != 4 || s.NodesLimit != 2000 || s.MinPos != 1 || s.MinPrec != 0.7 {
		t.Fatalf("defaults: %+v", s)
	}
}

// TestScoreHeuristics pins the one rule score, coverage P − N (§4.2):
// negatives cost as much as positives earn, and body length is free.
func TestScoreHeuristics(t *testing.T) {
	for _, c := range []struct {
		pos, neg int
		want     float64
	}{
		{10, 2, 8},
		{2, 10, -8},
		{0, 0, 0},
	} {
		if got := Score(c.pos, c.neg); got != c.want {
			t.Errorf("Score(%d, %d) = %v, want %v", c.pos, c.neg, got, c.want)
		}
	}
}

func TestIsGood(t *testing.T) {
	s := Settings{MinPos: 2, MinPrec: 0.8}.WithDefaults()
	cases := []struct {
		pos, neg int
		want     bool
	}{
		{5, 0, true},
		{5, 1, true},  // 5/6 ≈ 0.83
		{5, 2, false}, // 5/7 ≈ 0.71
		{1, 0, false}, // below MinPos
		{2, 0, true},
	}
	for _, c := range cases {
		if got := s.IsGood(c.pos, c.neg); got != c.want {
			t.Errorf("IsGood(%d, %d) = %v, want %v", c.pos, c.neg, got, c.want)
		}
	}
}

func TestEvaluatorCoverageBruteForce(t *testing.T) {
	fx := newFixture(t)
	rule := logic.MustParseClause("active(M) :- bondx(M, A, B), atm(M, B, oxygen).")
	pos, neg := fx.ev.Coverage(&rule, nil, nil)
	// Brute force: every example tested directly.
	for i, e := range fx.ex.Pos {
		want := fx.m.CoversExample(&rule, e)
		if pos.Get(i) != want {
			t.Errorf("pos[%d] coverage mismatch", i)
		}
	}
	for i, e := range fx.ex.Neg {
		want := fx.m.CoversExample(&rule, e)
		if neg.Get(i) != want {
			t.Errorf("neg[%d] coverage mismatch", i)
		}
	}
	if pos.Count() != 4 || neg.Count() != 0 {
		t.Fatalf("target rule coverage: pos=%d neg=%d, want 4/0", pos.Count(), neg.Count())
	}
}

func TestEvaluatorCandidateMaskRestricts(t *testing.T) {
	fx := newFixture(t)
	rule := logic.MustParseClause("active(M) :- atm(M, A, oxygen).")
	mask := NewBitset(4)
	mask.Set(1)
	pos, _ := fx.ev.Coverage(&rule, mask, NewBitset(4))
	if pos.Count() != 1 || !pos.Get(1) {
		t.Fatalf("masked coverage: %v", pos)
	}
}

func TestEvaluatorSkipsRetracted(t *testing.T) {
	fx := newFixture(t)
	covered := NewBitset(4)
	covered.Set(0)
	fx.ex.RetractPos(covered)
	rule := logic.MustParseClause("active(M) :- atm(M, A, oxygen).")
	pos, _ := fx.ev.Coverage(&rule, nil, nil)
	if pos.Get(0) {
		t.Fatal("retracted example still counted")
	}
	if pos.Count() != 3 {
		t.Fatalf("coverage after retraction = %d, want 3", pos.Count())
	}
}

func TestLearnRuleFindsTarget(t *testing.T) {
	fx := newFixture(t)
	res := LearnRule(fx.ev, fx.bot, nil, Settings{MaxClauseLen: 3, MinPrec: 0.9})
	best := res.Best()
	if best == nil {
		t.Fatal("no good rule found")
	}
	if best.Pos != 4 || best.Neg != 0 {
		clause := best.Materialize(fx.bot)
		t.Fatalf("best rule covers %d/%d, want 4/0: %s", best.Pos, best.Neg, clause.String())
	}
	// The found rule must involve oxygen (the discriminating element).
	clause := best.Materialize(fx.bot)
	if s := clause.String(); !strings.Contains(s, "oxygen") {
		t.Fatalf("best rule does not mention oxygen: %s", s)
	}
}

func TestLearnRuleRespectsW(t *testing.T) {
	fx := newFixture(t)
	unlimited := LearnRule(fx.ev, fx.bot, nil, Settings{MaxClauseLen: 3, MinPrec: 0.75})
	if len(unlimited.Good) < 2 {
		t.Skipf("fixture yields %d good rules; widen fixture", len(unlimited.Good))
	}
	limited := LearnRule(fx.ev, fx.bot, nil, Settings{MaxClauseLen: 3, MinPrec: 0.75, W: 1})
	if len(limited.Good) != 1 {
		t.Fatalf("W=1 returned %d rules", len(limited.Good))
	}
	// The retained rule is the best one.
	if limited.Good[0].Score != unlimited.Good[0].Score {
		t.Fatalf("W=1 kept score %v, unlimited best %v", limited.Good[0].Score, unlimited.Good[0].Score)
	}
}

func TestLearnRuleNodesLimit(t *testing.T) {
	fx := newFixture(t)
	res := LearnRule(fx.ev, fx.bot, nil, Settings{NodesLimit: 3})
	if res.Generated > 3 {
		t.Fatalf("Generated = %d beyond NodesLimit", res.Generated)
	}
	if !res.ExhaustedNodes {
		t.Fatal("ExhaustedNodes not reported")
	}
}

func TestLearnRuleMaxClauseLen(t *testing.T) {
	fx := newFixture(t)
	res := LearnRule(fx.ev, fx.bot, nil, Settings{MaxClauseLen: 1, MinPrec: 0.5})
	for _, g := range res.Good {
		if len(g.Indices) > 1 {
			t.Fatalf("rule longer than MaxClauseLen: %v", g.Indices)
		}
	}
}

func TestLearnRuleSeedsRetained(t *testing.T) {
	fx := newFixture(t)
	// Seed with an arbitrary single-literal rule; it must appear in Good
	// even if poor, per Fig. 7 (Good = S).
	seed := []int32{0}
	res := LearnRule(fx.ev, fx.bot, [][]int32{seed}, Settings{MaxClauseLen: 3, MinPrec: 0.99, MinPos: 4})
	found := false
	for _, g := range res.Good {
		if equalIndices(g.Indices, seed) {
			found = true
		}
	}
	if !found {
		t.Fatal("seed rule dropped from Good")
	}
}

func TestLearnRuleSeededSearchRefinesSeeds(t *testing.T) {
	fx := newFixture(t)
	// Stage 1: limited search from scratch.
	first := LearnRule(fx.ev, fx.bot, nil, Settings{MaxClauseLen: 2, MinPrec: 0.75, W: 3})
	if len(first.Good) == 0 {
		t.Fatal("stage 1 found nothing")
	}
	var seeds [][]int32
	for _, g := range first.Good {
		seeds = append(seeds, g.Indices)
	}
	// Stage 2: seeded continuation must do at least as well.
	second := LearnRule(fx.ev, fx.bot, seeds, Settings{MaxClauseLen: 3, MinPrec: 0.75, W: 3})
	if len(second.Good) == 0 {
		t.Fatal("stage 2 found nothing")
	}
	if second.Good[0].Score < first.Good[0].Score {
		t.Fatalf("seeded search regressed: %v < %v", second.Good[0].Score, first.Good[0].Score)
	}
}

func TestLearnRuleInvalidSeedsIgnored(t *testing.T) {
	fx := newFixture(t)
	res := LearnRule(fx.ev, fx.bot, [][]int32{{9999}}, Settings{})
	for _, g := range res.Good {
		for _, ix := range g.Indices {
			if int(ix) >= len(fx.bot.Lits) {
				t.Fatal("invalid index leaked into results")
			}
		}
	}
	_ = res
}

func TestLearnRuleDeterministic(t *testing.T) {
	fx1 := newFixture(t)
	fx2 := newFixture(t)
	r1 := LearnRule(fx1.ev, fx1.bot, nil, Settings{MaxClauseLen: 3, MinPrec: 0.75})
	r2 := LearnRule(fx2.ev, fx2.bot, nil, Settings{MaxClauseLen: 3, MinPrec: 0.75})
	if len(r1.Good) != len(r2.Good) {
		t.Fatalf("different good counts: %d vs %d", len(r1.Good), len(r2.Good))
	}
	for i := range r1.Good {
		if !equalIndices(r1.Good[i].Indices, r2.Good[i].Indices) {
			t.Fatalf("rule %d differs between runs", i)
		}
	}
}

func TestChildCoverageSubsetOfParent(t *testing.T) {
	fx := newFixture(t)
	// Evaluate a rule and one of its refinements directly; the refinement's
	// coverage must be a subset (θ-subsumption anti-monotonicity).
	parent := fx.bot.Materialize([]int32{0})
	for j := 1; j < len(fx.bot.Lits) && j < 6; j++ {
		child := fx.bot.Materialize([]int32{0, int32(j)})
		pPos, pNeg := fx.ev.Coverage(&parent, nil, nil)
		cPos, cNeg := fx.ev.Coverage(&child, nil, nil)
		cPosOnly := cPos.Clone()
		cPosOnly.AndNotWith(pPos)
		cNegOnly := cNeg.Clone()
		cNegOnly.AndNotWith(pNeg)
		if !cPosOnly.Empty() || !cNegOnly.Empty() {
			t.Fatalf("refinement %d covers examples its parent does not", j)
		}
	}
}

func TestTheoryCovers(t *testing.T) {
	fx := newFixture(t)
	theory := []logic.Clause{
		logic.MustParseClause("active(M) :- atm(M, A, sulfur)."),
		logic.MustParseClause("active(M) :- atm(M, A, oxygen)."),
	}
	if !TheoryCovers(fx.m, theory, logic.MustParseTerm("active(m1)")) {
		t.Fatal("theory should cover m1 via oxygen rule")
	}
	if TheoryCovers(fx.m, theory, logic.MustParseTerm("active(m5)")) {
		t.Fatal("theory should not cover m5")
	}
	if TheoryCovers(fx.m, nil, logic.MustParseTerm("active(m1)")) {
		t.Fatal("empty theory covers nothing")
	}
}

// TestLearnRuleSteadyStateAllocs: a search on a warm evaluator — the memo
// knows every answer, the pools hold last search's scratch — allocates no
// more than a few objects per candidate it generates: its two coverage
// bitsets, and a Candidate with its index slice when no spare is left.
// Measured 3.14 (3.99 with a fresh searchState every search, 6.90 before
// the search pooled its scratch); one more allocation per candidate fails.
func TestLearnRuleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	kb, ex, bot := benchRichExamples(t, 48)
	ev := NewEvaluator(solve.NewMachine(kb, solve.DefaultBudget), ex)
	st := Settings{MinPos: 1, NodesLimit: 400}
	generated := LearnRule(ev, bot, nil, st).Generated
	allocs := testing.AllocsPerRun(3, func() { LearnRule(ev, bot, nil, st) })
	perCand := allocs / float64(generated)
	t.Logf("%.0f allocations for %d candidates: %.2f each", allocs, generated, perCand)
	if perCand > 4 {
		t.Fatalf("a warm search allocates %.2f times per candidate (%.0f for %d), budget 4", perCand, allocs, generated)
	}
}

// TestLearnRuleConcurrentSearchesAgree: searches on several goroutines at
// once share the pooled search state and spare candidates, and every result
// — read after all of them have finished — is the one a lone search returns.
// A candidate a Result holds is never handed to
// another search.
func TestLearnRuleConcurrentSearchesAgree(t *testing.T) {
	kb, ex, bot := benchRichExamples(t, 48)
	describe := func(r *Result) string {
		s := fmt.Sprintf("generated %d exhausted %v\n", r.Generated, r.ExhaustedNodes)
		for _, c := range r.Good {
			s += fmt.Sprintf("%v %d/%d %v %v %v\n", c.Indices, c.Pos, c.Neg, c.Score, c.PosCover(), c.NegCover())
		}
		return s
	}
	st := Settings{MinPos: 1, NodesLimit: 60}
	want := describe(LearnRule(NewEvaluator(solve.NewMachine(kb, solve.DefaultBudget), ex), bot, nil, st))
	const searchers, rounds = 4, 5
	results := make([][]*Result, searchers)
	var wg sync.WaitGroup
	for g := range searchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewEvaluator(solve.NewMachine(kb, solve.DefaultBudget), ex)
			for range rounds {
				results[g] = append(results[g], LearnRule(ev, bot, nil, st))
			}
		}()
	}
	wg.Wait()
	for g := range results {
		for i, r := range results[g] {
			if got := describe(r); got != want {
				t.Fatalf("searcher %d, round %d:\n%s\nalone:\n%s", g, i, got, want)
			}
		}
	}
}
