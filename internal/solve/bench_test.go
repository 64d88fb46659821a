package solve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
)

// benchKB builds a molecule-shaped KB with n facts per predicate.
func benchKB(n int) *KB {
	kb := NewKB()
	for i := 0; i < n; i++ {
		mol := fmt.Sprintf("m%d", i%50)
		kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(%s, a%d, carbon, 22, 0.1)", mol, i)))
		kb.AddFact(logic.MustParseTerm(fmt.Sprintf("bond(%s, a%d, a%d, 1)", mol, i, (i+1)%n)))
	}
	return kb
}

func BenchmarkProveIndexedFact(b *testing.B) {
	kb := benchKB(2000)
	m := NewMachine(kb, DefaultBudget)
	goal := logic.MustParseTerm("atm(m7, a7, carbon, 22, 0.1)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.ProveAtom(goal) {
			b.Fatal("fact not proved")
		}
	}
}

func BenchmarkProveFailUnknownConstant(b *testing.B) {
	kb := benchKB(2000)
	m := NewMachine(kb, DefaultBudget)
	goal := logic.MustParseTerm("atm(zz, a7, carbon, 22, 0.1)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.ProveAtom(goal) {
			b.Fatal("unexpected proof")
		}
	}
}

// benchCovers times one coverage check of rule against active(m7): through
// CoversExample (the rule compiled into the machine's scratch query on every
// call) or, with held set, through a Query compiled once outside the loop.
func benchCovers(b *testing.B, kb *KB, ruleSrc string, held bool) {
	m := NewMachine(kb, DefaultBudget)
	rule := logic.MustParseClause(ruleSrc)
	example := logic.MustParseTerm("active(m7)")
	var q Query
	m.CompileQuery(&q, &rule)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if held {
			ok = m.CoversQuery(&q, example)
		} else {
			ok = m.CoversExample(&rule, example)
		}
		if !ok {
			b.Fatal("not covered")
		}
	}
}

// The rules the held-query benchmarks time against active(m7), each on its
// own KB; TestCoversQueryAllocFree holds every one of them allocation-free.
const (
	benchFactsRule  = "active(M) :- atm(M, A, carbon, T, C), bond(M, A, B, 1)."
	benchBucketRule = "active(M) :- atm(M, A, n, T, C), bond(M, A, B, 3), atm(M, B, s, 21, D)."
	benchGroundRule = "active(M) :- subst(M, P, G), polar_gte(G, 3), polar_gte(G, 5)."
)

// BenchmarkCoversExample is the coverage-check kernel with the rule compiled
// into the machine's scratch query on every call, and BenchmarkCoversQuery
// the same with the rule compiled once, so one bench run reports
// scratch-compiled / held-query ns/op.
func BenchmarkCoversExample(b *testing.B) {
	benchCovers(b, benchKB(2000), benchFactsRule, false)
}
func BenchmarkCoversQuery(b *testing.B) {
	benchCovers(b, benchKB(2000), benchFactsRule, true)
}

// benchBucketKB is the shape the candidate filter is for: 50 molecules of 24
// atoms over six elements, so that a goal atm(m7, A, n, T, C) selects m7's
// 24-fact bucket by its first argument and five candidates in six disagree
// with it on the element.
func benchBucketKB() *KB {
	kb := NewKB()
	elems := []string{"c", "h", "o", "cl", "n", "s"}
	for m := 0; m < 50; m++ {
		for i := 0; i < 24; i++ {
			kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(m%d, a%d_%d, %s, %d, 0.%d)", m, m, i, elems[i%6], 20+i%5, i%7)))
			kb.AddFact(logic.MustParseTerm(fmt.Sprintf("bond(m%d, a%d_%d, a%d_%d, %d)", m, m, i, m, (i+1)%24, 1+i%4)))
		}
	}
	return kb
}

// BenchmarkCoversBucketScan is BenchmarkCoversQuery on that shape: every body
// literal scans a first-argument bucket end to end for the few candidates
// whose constants agree with the goal's (PERF.md "PR 24").
func BenchmarkCoversBucketScan(b *testing.B) {
	benchCovers(b, benchBucketKB(), benchBucketRule, true)
}

// benchGroundKB is pyrimidines' shape: 50 drugs with three substituent
// groups each, drawn from 20 groups, and a rule-defined threshold test on a
// group's polarity — so a rule body reaches the same few ground calls to
// polar_gte/2 from every example.
func benchGroundKB() *KB {
	kb := NewKB()
	var src strings.Builder
	src.WriteString("polar_gte(G, L) :- polar(G, V), level(L), V >= L.\n")
	for l := 1; l <= 5; l++ {
		fmt.Fprintf(&src, "level(%d).\n", l)
	}
	for g := 0; g < 20; g++ {
		fmt.Fprintf(&src, "polar(g%d, %d).\n", g, 1+g%5)
	}
	for d := 0; d < 50; d++ {
		for p := 0; p < 3; p++ {
			fmt.Fprintf(&src, "subst(m%d, p%d, g%d).\n", d, p, (d+7*p)%20)
		}
	}
	if err := kb.AddSource(src.String()); err != nil {
		panic(err)
	}
	return kb
}

// BenchmarkCoversGroundCall is the ground-call memo's hit path: with the
// memo warm, each example's polar_gte calls replay their recorded charges
// instead of running the rule, its two fact lookups and the builtin.
func BenchmarkCoversGroundCall(b *testing.B) {
	benchCovers(b, benchGroundKB(), benchGroundRule, true)
}

// warmGroundPack is a frontier's fan on that shape: five children of
// "active(M) :- subst(M, P, G)" whose one-goal suffixes are ground
// polar_gte calls, compiled as one QueryPack on m and run once over all 50
// drugs, so that every suffix's call is in the memo. It returns the pack,
// the drugs and the members' answer slice.
func warmGroundPack(m *Machine) (*QueryPack, []logic.Term, []bool) {
	var rules []*logic.Clause
	for l := 1; l <= 5; l++ {
		r := logic.MustParseClause(fmt.Sprintf("active(M) :- subst(M, P, G), polar_gte(G, %d).", l))
		rules = append(rules, &r)
	}
	var examples []logic.Term
	for d := 0; d < 50; d++ {
		examples = append(examples, logic.MustParseTerm(fmt.Sprintf("active(m%d)", d)))
	}
	pack := new(QueryPack)
	m.CompilePack(pack, rules, 1)
	hit := make([]bool, len(rules))
	for _, ex := range examples {
		m.CoversPack(pack, ex, hit, nil) // record every call once
	}
	return pack, examples, hit
}

// BenchmarkCoversPackGroundSuffix runs the warm ground pack drug after drug:
// each suffix is answered in place from its memo entry
// (QueryPack.stepSuffix).
func BenchmarkCoversPackGroundSuffix(b *testing.B) {
	m := NewMachine(benchGroundKB(), DefaultBudget)
	pack, examples, hit := warmGroundPack(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CoversPack(pack, examples[i%len(examples)], hit, nil)
		if !hit[0] {
			b.Fatal("not covered")
		}
	}
}

func BenchmarkSolveEnumerate(b *testing.B) {
	kb := benchKB(2000)
	m := NewMachine(kb, DefaultBudget)
	goal := logic.MustParseTerm("atm(m7, X, carbon, T, C)")
	goals := []logic.Literal{logic.Lit(goal)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		m.Solve(goals, goal.MaxVar()+1, func(*logic.Bindings) bool {
			count++
			return true
		})
		if count == 0 {
			b.Fatal("no solutions")
		}
	}
}

// benchRuleKB mixes ground facts with var-containing rules so the
// clause-renaming path (offset-threaded unification) is exercised.
func benchRuleKB(n int) *KB {
	kb := benchKB(n)
	if err := kb.AddSource(`
		heavy(M) :- atm(M, A, carbon, T, C), T > 20.
		linked(M, A, B) :- bond(M, A, B, K).
		linked(M, A, B) :- bond(M, B, A, K).
		ring3(M) :- linked(M, A, B), linked(M, B, C), linked(M, C, A).
	`); err != nil {
		panic(err)
	}
	// Close one triangle so ring3 is satisfiable: a7 → a8 → az → a7.
	kb.AddFact(logic.MustParseTerm("bond(m7, a8, az, 1)"))
	kb.AddFact(logic.MustParseTerm("bond(m7, az, a7, 1)"))
	return kb
}

const benchRulesRule = "active(M) :- heavy(M), linked(M, A, B)."

func BenchmarkCoversExampleRules(b *testing.B) {
	benchCovers(b, benchRuleKB(2000), benchRulesRule, false)
}
func BenchmarkCoversQueryRules(b *testing.B) {
	benchCovers(b, benchRuleKB(2000), benchRulesRule, true)
}

func BenchmarkProveRecursiveRules(b *testing.B) {
	kb := benchRuleKB(2000)
	m := NewMachine(kb, DefaultBudget)
	goal := logic.MustParseTerm("ring3(m7)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.ProveAtom(goal) {
			b.Fatal("no 3-ring found")
		}
	}
}

func BenchmarkSecondArgIndexedGoal(b *testing.B) {
	kb := benchKB(2000)
	m := NewMachine(kb, DefaultBudget)
	// First argument unbound, second bound: only the second-arg index saves
	// this goal from scanning the whole bond table.
	goal := logic.MustParseTerm("bond(M, a7, B, 1)")
	goals := []logic.Literal{logic.Lit(goal)}
	nv := goal.MaxVar() + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := false
		m.Solve(goals, nv, func(*logic.Bindings) bool {
			found = true
			return false
		})
		if !found {
			b.Fatal("no solution")
		}
	}
}
