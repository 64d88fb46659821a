package search

import (
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/solve"
)

// The search tests have one reference, ProveAlone: a rule compiled once and
// proved by CoversQuery on every example a coverage call tests — the
// rule-by-rule entry point whose answers, charges and cutoffs solve's
// TestProverMatchesOracle holds to the seed engine. Every evaluator, serial
// or parallel, packed or rule by rule, on a cold memo or a warm one, is
// checked against it, most through a Rig. Both are exported for the tests
// outside the package.

// ProveAlone compiles rule once on ref and runs CoversQuery on every example
// of ex a Coverage call with these masks tests — or on every example.
func ProveAlone(ref *solve.Machine, ex *Examples, rule *logic.Clause, posCand, negCand Bitset, full bool) CoverResult {
	var q solve.Query
	ref.CompileQuery(&q, rule)
	out := CoverResult{Pos: NewBitset(len(ex.Pos)), Neg: NewBitset(len(ex.Neg))}
	for i, e := range ex.Pos {
		tested := full || ex.PosAlive.Get(i) && (posCand == nil || posCand.Get(i))
		if tested && ref.CoversQuery(&q, e) {
			out.Pos.Set(i)
		}
	}
	for i, e := range ex.Neg {
		tested := full || negCand == nil || negCand.Get(i)
		if tested && ref.CoversQuery(&q, e) {
			out.Neg.Set(i)
		}
	}
	return out
}

// Alone is the Coverer that answers every question with ProveAlone on M:
// no memo, no pack. A search run against it is the reference for the same
// search run against an evaluator.
type Alone struct {
	M  *solve.Machine
	Ex *Examples
}

func (a Alone) Coverage(rule *logic.Clause, posCand, negCand Bitset) (Bitset, Bitset) {
	r := ProveAlone(a.M, a.Ex, rule, posCand, negCand, false)
	return r.Pos, r.Neg
}

func (a Alone) PosLen() int { return len(a.Ex.Pos) }
func (a Alone) NegLen() int { return len(a.Ex.Neg) }

// Rig asks coverage calls of Cov, whose machine is Ev's, and checks every
// call against ProveAlone on Ref, a machine of its own: the same bits, and
// the same TotalInferences and CutoffQueries added. Cov is Ev unless a test
// wraps it; Ev's memo carries answers from call to call.
type Rig struct {
	T   testing.TB
	Ev  *Evaluator
	Cov Coverer
	Ref *solve.Machine
}

func NewRig(t testing.TB, kb *solve.KB, ex *Examples, budget solve.Budget) *Rig {
	ev := NewEvaluator(solve.NewMachine(kb, budget), ex)
	return &Rig{T: t, Ev: ev, Cov: ev, Ref: solve.NewMachine(kb, budget)}
}

// check runs got on the rig's coverer and want on its reference and
// compares. It returns the steps Ev's machine executed during the call.
func (r *Rig) check(name string, got, want func() []CoverResult) int64 {
	r.T.Helper()
	m := r.Ev.M
	inf, cut, steps := m.TotalInferences(), m.CutoffQueries(), m.StepsExecuted()
	rinf, rcut := r.Ref.TotalInferences(), r.Ref.CutoffQueries()
	g, w := got(), want()
	for i := range w {
		if fmt.Sprint(g[i]) != fmt.Sprint(w[i]) {
			r.T.Fatalf("%s: result %d is %v, proved alone %v", name, i, g[i], w[i])
		}
	}
	if dInf, dCut, wInf, wCut := m.TotalInferences()-inf, m.CutoffQueries()-cut, r.Ref.TotalInferences()-rinf, r.Ref.CutoffQueries()-rcut; dInf != wInf || dCut != wCut {
		r.T.Fatalf("%s: charged %d inferences with %d cutoffs, proved alone %d with %d", name, dInf, dCut, wInf, wCut)
	}
	return m.StepsExecuted() - steps
}

func (r *Rig) alone(rules []*logic.Clause, pos, neg []Bitset, full bool) func() []CoverResult {
	return func() []CoverResult {
		out := make([]CoverResult, len(rules))
		for i, rule := range rules {
			out[i] = ProveAlone(r.Ref, r.Ev.Ex, rule, maskAt(pos, i), maskAt(neg, i), full)
		}
		return out
	}
}

// Batch checks one CoverageBatchOf call.
func (r *Rig) Batch(name string, rules []*logic.Clause, pos, neg []Bitset) int64 {
	r.T.Helper()
	return r.check(name, func() []CoverResult { return CoverageBatchOf(r.Cov, rules, pos, neg) }, r.alone(rules, pos, neg, false))
}

// Coverage checks one Coverage call.
func (r *Rig) Coverage(name string, rule *logic.Clause, pos, neg Bitset) int64 {
	r.T.Helper()
	return r.check(name, func() []CoverResult {
		p, n := r.Cov.Coverage(rule, pos, neg)
		return []CoverResult{{p, n}}
	}, r.alone([]*logic.Clause{rule}, []Bitset{pos}, []Bitset{neg}, false))
}

// Full checks one CoverageFull call, or a CoverageFullBatch of several rules.
func (r *Rig) Full(name string, rules ...*logic.Clause) int64 {
	r.T.Helper()
	return r.check(name, func() []CoverResult {
		if len(rules) == 1 {
			p, n := r.Ev.CoverageFull(rules[0])
			return []CoverResult{{p, n}}
		}
		return r.Ev.CoverageFullBatch(rules)
	}, r.alone(rules, nil, nil, true))
}
