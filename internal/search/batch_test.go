package search

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/solve"
)

// randomMask returns a bitset over n bits with each bit set with probability
// p; with p == 0 the mask is empty (legal: nothing tested).
func randomMask(n int, p float64, rng *rand.Rand) Bitset {
	b := NewBitset(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
		}
	}
	return b
}

// TestCoverageBatchMatchesPerRule pins the batch API's contract on
// randomized batches: for both the serial Evaluator and the pooled
// ParallelEvaluator, CoverageBatch must be bit-for-bit identical to proving
// each rule alone — including nil, empty, and narrow candidate masks, and
// batches small enough to stay under parallelThreshold.
func TestCoverageBatchMatchesPerRule(t *testing.T) {
	fx := newFixture(t)
	pe := NewParallelEvaluator(fx.kb, fx.ex, solve.DefaultBudget, 4)
	defer pe.Close()
	ref := solve.NewMachine(fx.kb, solve.DefaultBudget)
	rng := rand.New(rand.NewSource(23))

	for trial := 0; trial < 40; trial++ {
		nRules := 1 + rng.Intn(6) // includes sub-threshold batches
		clauses := make([]logic.Clause, nRules)
		rules := make([]*logic.Clause, nRules)
		posCands := make([]Bitset, nRules)
		negCands := make([]Bitset, nRules)
		for i := range rules {
			clauses[i] = randomRuleFrom(fx, rng)
			rules[i] = &clauses[i]
			switch rng.Intn(4) {
			case 0: // nil masks: test everything
			case 1: // empty masks: test nothing
				posCands[i] = NewBitset(len(fx.ex.Pos))
				negCands[i] = NewBitset(len(fx.ex.Neg))
			default:
				posCands[i] = randomMask(len(fx.ex.Pos), rng.Float64(), rng)
				negCands[i] = randomMask(len(fx.ex.Neg), rng.Float64(), rng)
			}
		}
		for name, res := range map[string][]CoverResult{
			"serial":   fx.ev.CoverageBatch(rules, posCands, negCands),
			"parallel": pe.CoverageBatch(rules, posCands, negCands),
		} {
			if len(res) != nRules {
				t.Fatalf("%s: got %d results for %d rules", name, len(res), nRules)
			}
			for i := range rules {
				want := ProveAlone(ref, fx.ex, rules[i], posCands[i], negCands[i], false)
				assertSameBits(t, name+"-pos", want.Pos, res[i].Pos)
				assertSameBits(t, name+"-neg", want.Neg, res[i].Neg)
			}
		}
	}
}

// TestCoverageFullBatchMatchesPerRule does the same for the full-set batch
// used by the p²-mdie workers' bag evaluation.
func TestCoverageFullBatchMatchesPerRule(t *testing.T) {
	fx := newFixture(t)
	// Retract a positive so full-vs-alive masking is distinguishable.
	covered := NewBitset(len(fx.ex.Pos))
	covered.Set(1)
	fx.ex.RetractPos(covered)
	pe := NewParallelEvaluator(fx.kb, fx.ex, solve.DefaultBudget, 3)
	defer pe.Close()
	rng := rand.New(rand.NewSource(29))
	clauses := make([]logic.Clause, 5)
	rules := make([]*logic.Clause, 5)
	for i := range rules {
		clauses[i] = randomRuleFrom(fx, rng)
		rules[i] = &clauses[i]
	}
	serial := fx.ev.CoverageFullBatch(rules)
	pooled := pe.CoverageFullBatch(rules)
	ref := solve.NewMachine(fx.kb, solve.DefaultBudget)
	for i := range rules {
		want := ProveAlone(ref, fx.ex, rules[i], nil, nil, true)
		assertSameBits(t, "serial-full-pos", want.Pos, serial[i].Pos)
		assertSameBits(t, "serial-full-neg", want.Neg, serial[i].Neg)
		assertSameBits(t, "pool-full-pos", want.Pos, pooled[i].Pos)
		assertSameBits(t, "pool-full-neg", want.Neg, pooled[i].Neg)
	}
}

// plainCoverer hides everything but the base Coverer interface, so
// CoverageBatchOf takes its per-rule loop: the per-candidate reference the
// batch ≡ per-rule tests compare against.
type plainCoverer struct {
	Coverer
	calls int
}

func (p *plainCoverer) Coverage(rule *logic.Clause, posCand, negCand Bitset) (Bitset, Bitset) {
	p.calls++
	return p.Coverer.Coverage(rule, posCand, negCand)
}

// TestCoverageBatchOfFallsBackToLoop pins the adapter: a Coverer without
// CoverageBatch gets one Coverage call per rule and identical results, so
// LearnRule keeps working against non-batching coverers.
func TestCoverageBatchOfFallsBackToLoop(t *testing.T) {
	fx := newFixture(t)
	pc := &plainCoverer{Coverer: fx.ev}
	rules := []*logic.Clause{}
	var clauses []logic.Clause
	for _, ix := range [][]int32{nil, {0}, {0, 1}} {
		clauses = append(clauses, fx.bot.Materialize(ix))
	}
	for i := range clauses {
		rules = append(rules, &clauses[i])
	}
	res := CoverageBatchOf(pc, rules, nil, nil)
	if pc.calls != len(rules) {
		t.Fatalf("fallback adapter made %d Coverage calls for %d rules", pc.calls, len(rules))
	}
	for i := range rules {
		wantPos, wantNeg := fx.ev.Coverage(rules[i], nil, nil)
		assertSameBits(t, "fallback-pos", wantPos, res[i].Pos)
		assertSameBits(t, "fallback-neg", wantNeg, res[i].Neg)
	}

	// A search over the plain coverer must agree with the batched one.
	st := Settings{MaxClauseLen: 3, MinPrec: 0.9}
	plain := LearnRule(pc, fx.bot, nil, st)
	batched := LearnRule(fx.ev, fx.bot, nil, st)
	if plain.Generated != batched.Generated || len(plain.Good) != len(batched.Good) {
		t.Fatalf("plain coverer search diverged: generated %d vs %d, good %d vs %d",
			plain.Generated, batched.Generated, len(plain.Good), len(batched.Good))
	}
}

// TestLearnRuleBatchedMatchesUnbatched pins that batching is a pure
// performance change: identical Good rules (indices, coverage bitsets,
// scores), Generated counts and limit behavior, over both evaluators,
// seeded and unseeded, with and without a NodesLimit.
func TestLearnRuleBatchedMatchesUnbatched(t *testing.T) {
	for _, workers := range []int{0, 4} {
		for _, limit := range []int{0, 7} {
			for _, seeded := range []bool{false, true} {
				fxA := newFixture(t)
				fxB := newFixture(t)
				var evA, evB Coverer = fxA.ev, fxB.ev
				if workers > 0 {
					peA := NewParallelEvaluator(fxA.kb, fxA.ex, solve.DefaultBudget, workers)
					defer peA.Close()
					peB := NewParallelEvaluator(fxB.kb, fxB.ex, solve.DefaultBudget, workers)
					defer peB.Close()
					evA, evB = peA, peB
				}
				var seeds [][]int32
				if seeded {
					seeds = [][]int32{{0}, {1}}
				}
				st := Settings{MaxClauseLen: 3, MinPrec: 0.75, NodesLimit: limit}
				batched := LearnRule(evA, fxA.bot, seeds, st)
				unbatched := LearnRule(&plainCoverer{Coverer: evB}, fxB.bot, seeds, st)
				if batched.Generated != unbatched.Generated || batched.ExhaustedNodes != unbatched.ExhaustedNodes {
					t.Fatalf("w=%d limit=%d seeded=%v: generated %d/%v vs %d/%v",
						workers, limit, seeded,
						batched.Generated, batched.ExhaustedNodes, unbatched.Generated, unbatched.ExhaustedNodes)
				}
				if len(batched.Good) != len(unbatched.Good) {
					t.Fatalf("good counts differ: %d vs %d", len(batched.Good), len(unbatched.Good))
				}
				for i := range batched.Good {
					a, b := batched.Good[i], unbatched.Good[i]
					if !equalIndices(a.Indices, b.Indices) || a.Score != b.Score {
						t.Fatalf("good[%d] differs: %v/%v vs %v/%v", i, a.Indices, a.Score, b.Indices, b.Score)
					}
					assertSameBits(t, "good-pos", a.PosCover(), b.PosCover())
					assertSameBits(t, "good-neg", a.NegCover(), b.NegCover())
				}
			}
		}
	}
}

// TestBatchAccountingInvariant pins the two pool invariants the persistent
// shard pool must keep under dynamic scheduling: results bit-for-bit equal
// to serial evaluation, and total inference accounting both deterministic
// across runs and equal to the serial evaluator's (per-task SLD work is
// fixed no matter which shard machine claims the task).
func TestBatchAccountingInvariant(t *testing.T) {
	type outcome struct {
		inf   int64
		words []uint64
	}
	run := func(workers int) outcome {
		fx := newFixture(t)
		rng := rand.New(rand.NewSource(31))
		m := solve.NewMachine(fx.kb, solve.DefaultBudget)
		var ev interface {
			BatchCoverer
			CoverageFullBatch(rules []*logic.Clause) []CoverResult
		}
		var inferences func() int64
		if workers > 1 {
			pe := NewParallelEvaluator(fx.kb, fx.ex, solve.DefaultBudget, workers)
			defer pe.Close()
			ev = pe
			inferences = pe.OwnInferences
		} else {
			ev = NewEvaluator(m, fx.ex)
			inferences = m.TotalInferences
		}
		var got outcome
		for trial := 0; trial < 10; trial++ {
			nRules := 1 + rng.Intn(5)
			clauses := make([]logic.Clause, nRules)
			rules := make([]*logic.Clause, nRules)
			posCands := make([]Bitset, nRules)
			negCands := make([]Bitset, nRules)
			for i := range rules {
				clauses[i] = randomRuleFrom(fx, rng)
				rules[i] = &clauses[i]
				if rng.Intn(2) == 0 {
					posCands[i] = randomMask(len(fx.ex.Pos), 0.7, rng)
					negCands[i] = randomMask(len(fx.ex.Neg), 0.7, rng)
				}
			}
			for _, r := range ev.CoverageBatch(rules, posCands, negCands) {
				got.words = append(got.words, r.Pos...)
				got.words = append(got.words, r.Neg...)
			}
			for _, r := range ev.CoverageFullBatch(rules[:1+rng.Intn(nRules)]) {
				got.words = append(got.words, r.Pos...)
				got.words = append(got.words, r.Neg...)
			}
		}
		got.inf = inferences()
		return got
	}

	serial := run(1)
	parA := run(4)
	parB := run(4)
	if serial.inf == 0 {
		t.Fatal("no inferences recorded")
	}
	if parA.inf != serial.inf {
		t.Fatalf("pool inference total %d != serial total %d", parA.inf, serial.inf)
	}
	if parA.inf != parB.inf {
		t.Fatalf("pool accounting not deterministic: %d vs %d", parA.inf, parB.inf)
	}
	if len(parA.words) != len(serial.words) || len(parA.words) != len(parB.words) {
		t.Fatalf("result stream lengths differ: %d/%d/%d", len(serial.words), len(parA.words), len(parB.words))
	}
	for i := range serial.words {
		if serial.words[i] != parA.words[i] || parA.words[i] != parB.words[i] {
			t.Fatalf("result word %d differs across runs", i)
		}
	}
}

// TestBatchPoolStress drives the persistent pool with batches big enough to
// cross parallelThreshold over and over; under -race this is the pool's
// synchronization proof (tasks claimed from the atomic cursor, disjoint
// output words, one wake/join per batch).
func TestBatchPoolStress(t *testing.T) {
	kb, ex, rule := benchWideExamples(t, 512)
	pe := NewParallelEvaluator(kb, ex, solve.DefaultBudget, 8)
	defer pe.Close()
	ref := NewEvaluator(solve.NewMachine(kb, solve.DefaultBudget), ex)
	wantPos, wantNeg := ref.CoverageFull(&rule)
	rules := make([]*logic.Clause, 7)
	for i := range rules {
		rules[i] = &rule
	}
	for round := 0; round < 50; round++ {
		for _, r := range pe.CoverageFullBatch(rules) {
			assertSameBits(t, "stress-pos", wantPos, r.Pos)
			assertSameBits(t, "stress-neg", wantNeg, r.Neg)
		}
		res := pe.CoverageBatch(rules, nil, nil)
		for _, r := range res {
			assertSameBits(t, "stress-alive-pos", wantPos, r.Pos)
		}
	}
}

// TestLearnRuleOnePoolSyncPerNode pins the acceptance criterion of the
// batch path: a batched search issues one batch evaluation per expanded
// node (plus one per initial seed), not one per generated candidate; a
// per-rule coverer is called once per candidate. The rich task expands many
// candidates per node, so the two counts separate by the mean branching
// factor.
func TestLearnRuleOnePoolSyncPerNode(t *testing.T) {
	kb, ex, bot := benchRichExamples(t, 64)
	st := Settings{MaxClauseLen: 3, MinPrec: 0.9}

	pe := NewParallelEvaluator(kb, ex, solve.DefaultBudget, 4)
	defer pe.Close()
	res := LearnRule(pe, bot, nil, st)
	batches, wakes := pe.Stats()
	if res.Generated < 50 {
		t.Fatalf("task too small to be meaningful: %d generated", res.Generated)
	}
	// One batch per expanded node plus the root evaluation; expansion count
	// is bounded by (but usually far below) the generated count.
	if batches >= int64(res.Generated)/2 {
		t.Fatalf("batched search issued %d batch evaluations for %d candidates — not per-node batching", batches, res.Generated)
	}
	if wakes == 0 {
		t.Fatal("no batch crossed parallelThreshold; widen the task")
	}

	peNo := NewParallelEvaluator(kb, ex, solve.DefaultBudget, 4)
	defer peNo.Close()
	resNo := LearnRule(&plainCoverer{Coverer: peNo}, bot, nil, st)
	batchesNo, _ := peNo.Stats()
	if batchesNo != int64(resNo.Generated) {
		t.Fatalf("per-candidate path issued %d evaluations for %d candidates", batchesNo, resNo.Generated)
	}
	if batches*2 > batchesNo {
		t.Fatalf("batching saved too little: %d batched vs %d per-candidate evaluations", batches, batchesNo)
	}
}

// TestFifoOpenHeadAndCompaction pins the frontier fix: FIFO order survives
// interleaved pushes and pops, the popped prefix is released (slots nilled,
// head compacted), and the queue never grows past live content.
func TestFifoOpenHeadAndCompaction(t *testing.T) {
	f := &fifoOpen{}
	next, popped := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			f.push(&Candidate{Pos: next})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			c := f.pop()
			if c.Pos != popped {
				t.Fatalf("pop order broken: got %d, want %d", c.Pos, popped)
			}
			popped++
		}
	}
	push(100)
	pop(70) // crosses the head≥64 && head*2≥len compaction trigger at pop 64
	if live := len(f.q) - f.head; live != 30 {
		t.Fatalf("live count wrong: %d", live)
	}
	if len(f.q) >= 100 {
		t.Fatalf("no compaction: head=%d len=%d", f.head, len(f.q))
	}
	push(40)
	pop(70)
	if !f.empty() {
		t.Fatal("queue should be empty")
	}
	// Un-compacted popped slots must be nilled so candidates are released.
	g := &fifoOpen{}
	g.push(&Candidate{})
	g.push(&Candidate{})
	g.pop()
	if g.q[0] != nil {
		t.Fatal("popped slot still holds the candidate")
	}
}

// oldIndicesKey is the seed implementation the allocation-free key replaced;
// kept here as the reference for key and ordering semantics.
func oldIndicesKey(ix []int32) string {
	var b strings.Builder
	for i, v := range ix {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	return b.String()
}

// TestCandKeyMatchesStringKey verifies the bitmap key dedups exactly like
// the old string key (equal keys iff equal index sets) and that the FNV
// fallback beyond 256 literals cannot collide with bitmap keys.
func TestCandKeyMatchesStringKey(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	seenOld := map[string][]int32{}
	seenNew := map[candKey][]int32{}
	for trial := 0; trial < 2000; trial++ {
		var ix []int32
		for j := int32(0); j < 200; j++ {
			if rng.Intn(20) == 0 {
				ix = append(ix, j)
			}
		}
		old := oldIndicesKey(ix)
		neu := makeCandKey(ix, 200)
		if prev, ok := seenOld[old]; ok != (seenNew[neu] != nil) {
			t.Fatalf("key disagreement for %v (prev %v)", ix, prev)
		}
		seenOld[old] = ix
		seenNew[neu] = ix
	}

	// Caller-supplied seeds may repeat an index; the key must keep such
	// lists distinct from their deduplicated forms, as the string key did.
	if makeCandKey([]int32{1, 1, 2}, 200) == makeCandKey([]int32{1, 2}, 200) {
		t.Fatal("duplicate-bearing index list collided with its dedup")
	}

	// Fallback keys are tagged: word 3 is all-ones, which a 256-literal
	// bitmap key over ascending indices < 192 can never set.
	big := makeCandKey([]int32{0, 300, 999}, 1000)
	if big[3] != ^uint64(0) {
		t.Fatalf("fallback key not tagged: %v", big)
	}
	if big == makeCandKey([]int32{0, 300, 998}, 1000) {
		t.Fatal("distinct big index lists collided")
	}
	if makeCandKey([]int32{0, 300, 999}, 1000) != big {
		t.Fatal("fallback key not deterministic")
	}
}

// TestLessIndicesMatchesStringOrder pins the tie-break comparator to the
// old string ordering exactly (the order decides which W rules a stage
// forwards, so it must not drift).
func TestLessIndicesMatchesStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randIx := func() []int32 {
		n := rng.Intn(5)
		out := make([]int32, 0, n)
		v := int32(0)
		for i := 0; i < n; i++ {
			v += int32(1 + rng.Intn(40))
			out = append(out, v)
		}
		return out
	}
	for trial := 0; trial < 5000; trial++ {
		a, b := randIx(), randIx()
		want := oldIndicesKey(a) < oldIndicesKey(b)
		if got := lessIndices(a, b); got != want {
			t.Fatalf("lessIndices(%v, %v) = %v, string order says %v", a, b, got, want)
		}
	}
}
