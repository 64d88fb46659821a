package search

import (
	"fmt"
	"testing"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/solve"
)

func benchFixture(b *testing.B) *fixture {
	b.Helper()
	return newFixture(b)
}

// The benchmarks below build a fresh Evaluator per iteration: a warm one
// would answer every question from its memo (memo.go) and time replays, not
// proofs. BenchmarkCoverageBatchFrontier's memo row times the replays.

func BenchmarkCoverageSmallRule(b *testing.B) {
	fx := benchFixture(b)
	rule := fx.bot.Materialize([]int32{0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, _ := NewEvaluator(fx.m, fx.ex).Coverage(&rule, nil, nil)
		if pos.Empty() {
			b.Fatal("no coverage")
		}
	}
}

func BenchmarkLearnRuleFullSearch(b *testing.B) {
	fx := benchFixture(b)
	st := Settings{MaxClauseLen: 3, MinPrec: 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := LearnRule(NewEvaluator(fx.m, fx.ex), fx.bot, nil, st)
		if res.Best() == nil {
			b.Fatal("no rule found")
		}
	}
}

func BenchmarkLearnRuleSeeded(b *testing.B) {
	fx := benchFixture(b)
	st := Settings{MaxClauseLen: 3, MinPrec: 0.9, W: 5}
	first := LearnRule(fx.ev, fx.bot, nil, st)
	var seeds [][]int32
	for _, g := range first.Good {
		seeds = append(seeds, g.Indices)
	}
	if len(seeds) == 0 {
		b.Fatal("no seeds")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LearnRule(NewEvaluator(fx.m, fx.ex), fx.bot, seeds, st)
	}
}

func BenchmarkBitsetOps(b *testing.B) {
	x := FullBitset(4096)
	y := NewBitset(4096)
	for i := 0; i < 4096; i += 3 {
		y.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.AndWith(y)
		if c.Count() == 0 {
			b.Fatal("empty intersection")
		}
	}
}

func BenchmarkCoverageFullSerial(b *testing.B) {
	fx := benchFixture(b)
	rule := fx.bot.Materialize([]int32{0, 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, _ := NewEvaluator(fx.m, fx.ex).CoverageFull(&rule)
		if pos.Empty() {
			b.Fatal("no coverage")
		}
	}
}

// benchWideExamples builds a molecular task large enough that sharding the
// example set matters: n molecules, alternating positive (oxygen-bonded)
// and negative.
func benchWideExamples(b testing.TB, n int) (*solve.KB, *Examples, logic.Clause) {
	b.Helper()
	kb := solve.NewKB()
	var pos, neg []logic.Term
	for i := 0; i < n; i++ {
		mol := fmt.Sprintf("w%d", i)
		second := "carbon"
		if i%2 == 0 {
			second = "oxygen"
		}
		kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(%s, b%d1, carbon)", mol, i)))
		kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(%s, b%d2, %s)", mol, i, second)))
		kb.AddFact(logic.MustParseTerm(fmt.Sprintf("bondx(%s, b%d1, b%d2)", mol, i, i)))
		ex := logic.MustParseTerm(fmt.Sprintf("active(%s)", mol))
		if i%2 == 0 {
			pos = append(pos, ex)
		} else {
			neg = append(neg, ex)
		}
	}
	rule := logic.MustParseClause("active(M) :- atm(M, A, carbon), bondx(M, A, B), atm(M, B, oxygen).")
	return kb, NewExamples(pos, neg), rule
}

func BenchmarkCoverageFullWideSerial(b *testing.B) {
	kb, ex, rule := benchWideExamples(b, 2048)
	m := solve.NewMachine(kb, solve.DefaultBudget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, _ := NewEvaluator(m, ex).CoverageFull(&rule)
		if pos.Empty() {
			b.Fatal("no coverage")
		}
	}
}

func BenchmarkCoverageFullWideParallel(b *testing.B) {
	kb, ex, rule := benchWideExamples(b, 2048)
	pe := NewParallelEvaluator(kb, ex, solve.DefaultBudget, 0)
	defer pe.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos, _ := pe.CoverageFull(&rule)
		if pos.Empty() {
			b.Fatal("no coverage")
		}
	}
}

// benchRichExamples builds a molecular task whose bottom clause is rich
// enough that LearnRule expands hundreds of candidates: n molecules of five
// atoms in a bond chain, positive iff some bond reaches an oxygen.
func benchRichExamples(b testing.TB, n int) (*solve.KB, *Examples, *bottom.Bottom) {
	b.Helper()
	elements := [...]string{"carbon", "nitrogen", "sulfur", "carbon", "hydrogen", "carbon", "phosphorus"}
	kb := solve.NewKB()
	var pos, neg []logic.Term
	for i := 0; i < n; i++ {
		mol := fmt.Sprintf("r%d", i)
		for a := 0; a < 5; a++ {
			el := elements[(i*5+a*3)%len(elements)]
			if a == 3 && i%2 == 0 {
				el = "oxygen"
			}
			kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(%s, r%da%d, %s)", mol, i, a, el)))
		}
		for a := 0; a < 4; a++ {
			kb.AddFact(logic.MustParseTerm(fmt.Sprintf("bondx(%s, r%da%d, r%da%d)", mol, i, a, i, a+1)))
		}
		ex := logic.MustParseTerm(fmt.Sprintf("active(%s)", mol))
		if i%2 == 0 {
			pos = append(pos, ex)
		} else {
			neg = append(neg, ex)
		}
	}
	ex := NewExamples(pos, neg)
	m := solve.NewMachine(kb, solve.DefaultBudget)
	ms := mode.MustParseSet(fixtureModes)
	bot, err := bottom.Construct(m, ms, pos[0], bottom.Options{VarDepth: 2})
	if err != nil {
		b.Fatal(err)
	}
	return kb, ex, bot
}

// BenchmarkLearnRule is the end-to-end search benchmark the batch path is
// judged on: a full LearnRule over a wide example set, batched (one pool
// synchronisation per expanded node) versus per-candidate evaluation (one
// per generated rule, through plainCoverer), on the serial evaluator and
// on a 4-shard pool. The ns/node metric is search time per generated rule.
func BenchmarkLearnRule(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
		perCand bool
	}{
		{"batched/serial", 0, false},
		{"percand/serial", 0, true},
		{"batched/pool4", 4, false},
		{"percand/pool4", 4, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			kb, ex, bot := benchRichExamples(b, 256)
			m := solve.NewMachine(kb, solve.DefaultBudget)
			var pool *ParallelEvaluator // has no memo: one for all iterations
			if bc.workers > 0 {
				pool = NewParallelEvaluator(kb, ex, solve.DefaultBudget, bc.workers)
				defer pool.Close()
			}
			coverer := func() Coverer {
				var ev Coverer = NewEvaluator(m, ex)
				if pool != nil {
					ev = pool
				}
				if bc.perCand {
					ev = &plainCoverer{Coverer: ev}
				}
				return ev
			}
			st := Settings{MaxClauseLen: 3, MinPrec: 0.9}
			generated := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := LearnRule(coverer(), bot, nil, st)
				if res.Best() == nil {
					b.Fatal("no rule found")
				}
				generated += res.Generated
			}
			b.StopTimer()
			if generated > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(generated), "ns/node")
			}
		})
	}
}
