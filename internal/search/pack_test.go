package search

import (
	"testing"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/solve"
)

// batchShape is one CoverageBatch call: the rules, their masks, and whether
// the serial evaluator is expected to find a pack in it.
type batchShape struct {
	name     string
	rules    []*logic.Clause
	pos, neg []Bitset
	packed   bool
}

// checkShape asks the batch of a fresh evaluator twice over — through
// Evaluator.CoverageBatch, and through the plainCoverer wrapper that hides it
// and so proves rule by rule — each against ProveAlone (Rig). On the
// per-rule side what was executed plus what ground-call replays paid must be
// the charge; on the batch side it never exceeds the charge, and unbounded it
// is the charge exactly when the shape holds no pack and undercuts it when
// it does.
func checkShape(t *testing.T, kb *solve.KB, ex *Examples, budget solve.Budget, s batchShape) {
	t.Helper()
	batch, perRule := NewRig(t, kb, ex, budget), NewRig(t, kb, ex, budget)
	perRule.Cov = &plainCoverer{Coverer: perRule.Ev}
	batch.Batch(s.name, s.rules, s.pos, s.neg)
	perRule.Batch(s.name+" per rule", s.rules, s.pos, s.neg)
	mb, mr := batch.Ev.M, perRule.Ev.M
	if steps := mr.StepsExecuted() + mr.ReplayedInferences(); steps != mr.TotalInferences() {
		t.Fatalf("%s: per-rule path executed and replayed %d steps for %d charged", s.name, steps, mr.TotalInferences())
	}
	steps := mb.StepsExecuted() + mb.ReplayedInferences()
	if steps > mb.TotalInferences() {
		t.Fatalf("%s budget %+v: batch executed and replayed %d steps for %d charged", s.name, budget, steps, mb.TotalInferences())
	}
	if budget != solve.DefaultBudget {
		return // a pass that re-proofs replace is not counted at all
	}
	if s.packed && steps >= mb.TotalInferences() {
		t.Fatalf("%s: batch executed and replayed %d steps for %d charged — no pack found", s.name, steps, mb.TotalInferences())
	}
	if !s.packed && steps != mb.TotalInferences() {
		t.Fatalf("%s: batch executed and replayed %d steps for %d charged with nothing to share", s.name, steps, mb.TotalInferences())
	}
}

// frontierOf materializes one rule per index list.
func frontierOf(bot *bottom.Bottom, children ...[]int32) []*logic.Clause {
	rules := make([]*logic.Clause, len(children))
	for i, ix := range children {
		c := bot.Materialize(ix)
		rules[i] = &c
	}
	return rules
}

// repeatMask is n references to one mask: what evaluateFrontier hands out.
func repeatMask(m Bitset, n int) []Bitset {
	out := make([]Bitset, n)
	for i := range out {
		out[i] = m
	}
	return out
}

// TestCoverageBatchShapes pins Evaluator.CoverageBatch bit for bit and
// inference for inference against per-rule evaluation on every batch shape
// the grouping has to tell apart, with and without a budget tight enough
// that most proofs are cut off.
func TestCoverageBatchShapes(t *testing.T) {
	kb, ex, bot := benchRichExamples(t, 24)
	if len(bot.Lits) < 9 {
		t.Fatalf("bottom clause has %d literals, the shapes below index 9", len(bot.Lits))
	}
	ref := NewEvaluator(solve.NewMachine(kb, solve.DefaultBudget), ex)
	parent := bot.Materialize([]int32{0, 2})
	pPos, pNeg := ref.Coverage(&parent, nil, nil)
	other := bot.Materialize([]int32{1, 4})
	oPos, oNeg := ref.Coverage(&other, nil, nil)
	if pPos.Count() < 2 || pNeg.Count() < 2 {
		t.Fatalf("parent covers %d/%d: masks too thin to test anything", pPos.Count(), pNeg.Count())
	}

	appended := frontierOf(bot, []int32{0, 2, 3}, []int32{0, 2, 4}, []int32{0, 2, 5}, []int32{0, 2, 6}, []int32{0, 2, 7}, []int32{0, 2, 8})
	midInserts := frontierOf(bot,
		[]int32{0, 2, 5}, []int32{1, 2, 5}, []int32{2, 3, 5}, []int32{2, 4, 5}, // inserted before the parent's last literal
		[]int32{2, 5, 6}, []int32{2, 5, 7}, []int32{2, 5, 8}) // appended after it
	twoParents := frontierOf(bot, []int32{0, 2, 3}, []int32{1, 4, 5}, []int32{0, 2, 6}, []int32{1, 4, 7}, []int32{0, 2, 8})
	duplicated := []*logic.Clause{appended[0], appended[1], appended[0]}
	// What a ring stage's frontier looks like when its search resumed from
	// a seed: the new literal lands inside the body, the tail is shared.
	inserted := frontierOf(bot, []int32{0, 3, 8}, []int32{0, 4, 8}, []int32{0, 5, 8}, []int32{0, 6, 8})
	insertedDeep := frontierOf(bot, []int32{0, 1, 6, 7, 8}, []int32{0, 2, 6, 7, 8}, []int32{0, 3, 6, 7, 8}, []int32{0, 4, 6, 7, 8})
	// The leader's first sibling fixes the position: {0,3,7} joins {0,3,8}
	// at position 2, so {0,4,8} and {0,5,8} (position 1 against the leader)
	// form a group of their own.
	twoPositions := frontierOf(bot, []int32{0, 3, 8}, []int32{0, 3, 7}, []int32{0, 4, 8}, []int32{0, 5, 8})
	headInserts := frontierOf(bot, []int32{0, 5, 8}, []int32{1, 5, 8}, []int32{2, 5, 8})
	twoApart := frontierOf(bot, []int32{0, 3, 7}, []int32{0, 4, 8}, []int32{1, 3, 8})
	var roots [][]int32
	for j := range bot.Lits {
		roots = append(roots, []int32{int32(j)})
	}

	shapes := []batchShape{
		{"all appended", appended, repeatMask(pPos, 6), repeatMask(pNeg, 6), true},
		{"mid-inserts", midInserts, repeatMask(pPos, 7), repeatMask(pNeg, 7), true},
		{"two parents interleaved", twoParents, []Bitset{pPos, oPos, pPos, oPos, pPos}, []Bitset{pNeg, oNeg, pNeg, oNeg, pNeg}, true},
		// Equal contents in another array are another mask: rules 0 and 2
		// pack, the clone's and the nil-masked one go alone.
		{"masks equal but not identical", appended[:4], []Bitset{pPos, pPos.Clone(), pPos, nil}, []Bitset{pNeg, pNeg, pNeg, pNeg}, true},
		{"every mask its own", appended[:3], []Bitset{pPos, pPos.Clone(), pPos.Clone()}, repeatMask(pNeg, 3), false},
		{"negative masks differ", appended[:3], repeatMask(pPos, 3), []Bitset{pNeg, nil, pNeg.Clone()}, false},
		{"nil mask slices", appended, nil, nil, true},
		{"nil mask entries", appended, make([]Bitset, 6), make([]Bitset, 6), true},
		{"duplicated rule", duplicated, repeatMask(pPos, 3), repeatMask(pNeg, 3), true},
		{"inserted at one position", inserted, repeatMask(pPos, 4), repeatMask(pNeg, 4), true},
		{"inserted at one position, long tail", insertedDeep, nil, nil, true},
		{"two positions against one leader", twoPositions, repeatMask(pPos, 4), repeatMask(pNeg, 4), true},
		{"inserted at position 0", headInserts, repeatMask(pPos, 3), repeatMask(pNeg, 3), false},
		{"two positions apart", twoApart, repeatMask(pPos, 3), repeatMask(pNeg, 3), false},
		{"single rule", appended[:1], repeatMask(pPos, 1), repeatMask(pNeg, 1), false},
		{"empty prefix", frontierOf(bot, roots...), nil, nil, false},
		{"empty batch", nil, nil, nil, false},
	}
	budgets := []solve.Budget{solve.DefaultBudget, {MaxInferences: 13}, {MaxInferences: 40, MaxDepth: 1}}
	for _, s := range shapes {
		for _, b := range budgets {
			checkShape(t, kb, ex, b, s)
		}
	}
	for _, b := range budgets[1:] {
		m := solve.NewMachine(kb, b)
		NewEvaluator(m, ex).CoverageBatch(appended, nil, nil)
		if m.CutoffQueries() == 0 {
			t.Fatalf("budget %+v cuts nothing off: the tight legs above test no re-proof", b)
		}
	}

	// Retracted positives: the masks still name them, PosAlive does not.
	retracted := NewBitset(len(ex.Pos))
	pPos.ForEach(func(i int) bool {
		if i%2 == 0 {
			retracted.Set(i)
		}
		return true
	})
	if ex.RetractPos(retracted) == 0 {
		t.Fatal("nothing retracted")
	}
	for _, b := range budgets {
		checkShape(t, kb, ex, b, batchShape{"retracted positives", appended, repeatMask(pPos, 6), repeatMask(pNeg, 6), true})
		checkShape(t, kb, ex, b, batchShape{"retracted positives, nil masks", appended, nil, nil, true})
	}
}

// TestFanPos pins the grouping predicate on its own: the one position two
// siblings differ at, -1 for anything a pack cannot run.
func TestFanPos(t *testing.T) {
	_, _, bot := benchRichExamples(t, 24)
	mat := func(ix ...int32) *logic.Clause { c := bot.Materialize(ix); return &c }
	otherHead := mat(0, 3, 8)
	otherHead.Head = logic.MustParseTerm("elsewhere(A)")
	negated := mat(0, 3, 8)
	negated.Body[1].Neg = true
	for _, tc := range []struct {
		name string
		a, b *logic.Clause
		want int
	}{
		{"appended", mat(0, 3, 7), mat(0, 3, 8), 2},
		{"inserted mid-body", mat(0, 3, 8), mat(0, 4, 8), 1},
		{"inserted at the front", mat(0, 5, 8), mat(1, 5, 8), 0},
		{"sign only", mat(0, 3, 8), negated, 1},
		{"identical", mat(0, 3, 8), mat(0, 3, 8), -1},
		{"two positions", mat(0, 3, 7), mat(0, 4, 8), -1},
		{"lengths differ", mat(0, 3), mat(0, 3, 8), -1},
		{"heads differ", mat(0, 4, 8), otherHead, -1},
	} {
		if got := fanPos(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: fanPos = %d, want %d", tc.name, got, tc.want)
		}
		if got := fanPos(tc.b, tc.a); got != tc.want {
			t.Errorf("%s, swapped: fanPos = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// forget empties ev's coverage memo and keeps its buffers: the next call
// proves every question again, and allocates nothing for the memo.
func forget(ev *Evaluator) { ev.memo.m = nil }

// TestEvaluatorBatchAllocs: a packed CoverageBatch allocates what the
// per-rule loop does — the result slice and two bitsets per rule — because
// the group lists, the pack, its answers and the coverage memo are
// evaluator scratch. Every run of those two legs starts from a forgotten
// memo, so both prove their rules (the packed one through CoversPack)
// rather than replay. A third leg asks again on a warm evaluator into
// results it already holds: every answer is replayed, and nothing at all
// may be allocated for it.
func TestEvaluatorBatchAllocs(t *testing.T) {
	kb, ex, bot := benchRichExamples(t, 24)
	rules := frontierOf(bot, []int32{0, 2, 3}, []int32{0, 2, 4}, []int32{1, 2, 5}, []int32{0, 2, 6}, []int32{0, 2, 7})
	m := solve.NewMachine(kb, solve.DefaultBudget)
	ev := NewEvaluator(m, ex)
	pos, neg := repeatMask(ex.PosAlive.Clone(), len(rules)), repeatMask(FullBitset(len(ex.Neg)), len(rules))
	perRule := testing.AllocsPerRun(20, func() { forget(ev); coverageLoop(ev, rules, pos, neg) })
	steps := m.StepsExecuted()
	packed := testing.AllocsPerRun(20, func() { forget(ev); ev.CoverageBatch(rules, pos, neg) })
	if m.StepsExecuted() == steps {
		t.Fatal("the packed runs executed nothing: they were answered from the memo")
	}
	if want := float64(1 + 2*len(rules)); perRule != want {
		t.Fatalf("per-rule loop allocates %v per batch, expected the %v results", perRule, want)
	}
	if packed > perRule {
		t.Fatalf("packed CoverageBatch allocates %v per batch, the per-rule loop %v", packed, perRule)
	}
	again := NewEvaluator(m, ex).WarmBatch(rules, pos, neg)
	steps = m.StepsExecuted()
	if warm := testing.AllocsPerRun(20, again); warm != 0 {
		t.Fatalf("a warm evaluator allocates %v per batch replaying it from the memo", warm)
	}
	if m.StepsExecuted() != steps {
		t.Fatalf("the warm runs executed %d steps: the memo did not answer them", m.StepsExecuted()-steps)
	}
}

// TestStepsExecuted pins the counter that makes a pack's saving visible:
// with ReplayedInferences it adds up to TotalInferences as long as rules are
// proved one by one, falls strictly below it on a packed frontier, and is the
// same from run to run. Every pass runs on a fresh evaluator, so the
// coverage memo replays nothing that pass has not proved itself.
func TestStepsExecuted(t *testing.T) {
	kb, ex, bot := benchRichExamples(t, 24)
	rules := frontierOf(bot, []int32{0, 2, 3}, []int32{0, 2, 4}, []int32{0, 2, 5}, []int32{0, 2, 6})
	m := solve.NewMachine(kb, solve.DefaultBudget)
	for _, r := range rules {
		NewEvaluator(m, ex).Coverage(r, nil, nil)
		NewEvaluator(m, ex).CoverageFull(r)
	}
	NewEvaluator(m, ex).CoverageFullBatch(rules)
	if m.TotalInferences() == 0 || m.StepsExecuted()+m.ReplayedInferences() != m.TotalInferences() {
		t.Fatalf("per rule: %d steps executed, %d replayed, %d inferences charged", m.StepsExecuted(), m.ReplayedInferences(), m.TotalInferences())
	}
	perRule := m.TotalInferences()

	var runs [2]int64
	for i := range runs {
		m := solve.NewMachine(kb, solve.DefaultBudget)
		for range 3 {
			NewEvaluator(m, ex).CoverageBatch(rules, nil, nil)
		}
		if m.TotalInferences() != perRule {
			t.Fatalf("three packed passes charged %d, three per-rule passes %d", m.TotalInferences(), perRule)
		}
		if runs[i] = m.StepsExecuted(); runs[i]+m.ReplayedInferences() >= m.TotalInferences() {
			t.Fatalf("packed: %d steps executed, %d replayed, %d inferences charged", runs[i], m.ReplayedInferences(), m.TotalInferences())
		}
		m.ResetCounters()
		if m.StepsExecuted() != 0 || m.ReplayedInferences() != 0 {
			t.Fatalf("ResetCounters left %d steps, %d replayed", m.StepsExecuted(), m.ReplayedInferences())
		}
	}
	if runs[0] != runs[1] {
		t.Fatalf("steps executed differ run to run: %d vs %d", runs[0], runs[1])
	}
}
