package search

import (
	"repro/internal/logic"
	"repro/internal/solve"
)

// Coverer abstracts rule-coverage computation so the search can run against
// a local evaluator (this package's Evaluator), a multicore one
// (ParallelEvaluator), or a distributed one (the parallel-coverage baseline
// farms tests out to cluster workers).
type Coverer interface {
	// Coverage returns bitsets over the positive and negative example
	// index spaces; non-nil candidate masks restrict which examples are
	// (re-)tested.
	Coverage(rule *logic.Clause, posCand, negCand Bitset) (pos, neg Bitset)
	// PosLen and NegLen return the sizes of the index spaces.
	PosLen() int
	NegLen() int
}

// CoverResult is one rule's evaluation within a batch: the bitsets of
// covered positives and negatives, exactly as Coverage would return them.
type CoverResult struct {
	Pos, Neg Bitset
}

// BatchCoverer extends Coverer with whole-frontier evaluation: all candidate
// rules of one search-node expansion scored in a single call, so a parallel
// implementation pays one pool synchronisation per node instead of one
// goroutine fan-out per candidate. Coverers that cannot batch (the
// distributed parcov coverer) are adapted via CoverageBatchOf.
type BatchCoverer interface {
	Coverer
	// CoverageBatch evaluates rules[i] under posCands[i]/negCands[i]
	// (candidate masks, nil entries meaning "test everything", same
	// semantics as Coverage) and returns one CoverResult per rule, in
	// order. posCands/negCands may themselves be nil, meaning all-nil.
	// Results are bit-for-bit identical to len(rules) Coverage calls.
	CoverageBatch(rules []*logic.Clause, posCands, negCands []Bitset) []CoverResult
}

// CoverageBatchOf evaluates a batch through ev, using its native
// CoverageBatch when available and falling back to a per-rule Coverage loop
// otherwise. This keeps interface growth compatible: plain Coverers (such as
// parcov's distributed coverer) work unchanged.
func CoverageBatchOf(ev Coverer, rules []*logic.Clause, posCands, negCands []Bitset) []CoverResult {
	if bc, ok := ev.(BatchCoverer); ok {
		return bc.CoverageBatch(rules, posCands, negCands)
	}
	return coverageLoop(ev, rules, posCands, negCands)
}

// coverageLoop is the shared per-rule batch fallback: one Coverage call per
// rule, nil mask slices meaning all-nil.
func coverageLoop(ev Coverer, rules []*logic.Clause, posCands, negCands []Bitset) []CoverResult {
	out := make([]CoverResult, len(rules))
	for i, r := range rules {
		var pc, nc Bitset
		if posCands != nil {
			pc = posCands[i]
		}
		if negCands != nil {
			nc = negCands[i]
		}
		out[i].Pos, out[i].Neg = ev.Coverage(r, pc, nc)
	}
	return out
}

// FullCoverer extends Coverer with whole-set evaluation and inference
// accounting, the surface the p²-mdie workers need from their local
// evaluator regardless of whether it is serial or multicore.
type FullCoverer interface {
	Coverer
	// CoverageFull evaluates over every positive (retracted or not) and
	// every negative; callers memoise the result.
	CoverageFull(rule *logic.Clause) (pos, neg Bitset)
	// CoverageFullBatch is CoverageFull over a whole rules bag in one
	// call (one pool synchronisation on a parallel implementation).
	CoverageFullBatch(rules []*logic.Clause) []CoverResult
	// OwnInferences reports the SLD work done by machines the evaluator
	// owns. The serial Evaluator borrows its caller's machine — which the
	// caller already accounts for — so it reports 0; the parallel
	// evaluator owns one machine per shard and reports their sum.
	OwnInferences() int64
	// Close releases evaluator-owned resources (a parallel evaluator's
	// persistent shard pool). The evaluator must not be used afterwards.
	Close()
}

// Evaluator computes rule coverage over an example store using an SLD
// machine. Coverage of a refinement is computed only over the examples its
// parent covered (candidate masks), the standard MDIE evaluation shortcut:
// specialisation can only shrink coverage.
type Evaluator struct {
	M  *solve.Machine
	Ex *Examples

	scratch Bitset      // reused candidate-mask buffer; never escapes Coverage
	query   solve.Query // the rule under evaluation, recompiled in place per rule
}

var _ FullCoverer = (*Evaluator)(nil)

// PosLen returns the positive example count.
func (ev *Evaluator) PosLen() int { return len(ev.Ex.Pos) }

// NegLen returns the negative example count.
func (ev *Evaluator) NegLen() int { return len(ev.Ex.Neg) }

// OwnInferences reports 0: the Evaluator borrows its caller's machine.
func (ev *Evaluator) OwnInferences() int64 { return 0 }

// Close is a no-op: the Evaluator owns no goroutines or machines.
func (ev *Evaluator) Close() {}

// NewEvaluator pairs a machine with an example store.
func NewEvaluator(m *solve.Machine, ex *Examples) *Evaluator {
	return &Evaluator{M: m, Ex: ex}
}

// Coverage returns bitsets of the alive positives and of the negatives that
// rule covers. Non-nil candidate masks restrict which examples are tested
// (bits outside the mask come back clear).
func (ev *Evaluator) Coverage(rule *logic.Clause, posCand, negCand Bitset) (pos, neg Bitset) {
	pos = NewBitset(len(ev.Ex.Pos))
	neg = NewBitset(len(ev.Ex.Neg))
	q := ev.compile(rule)
	testPos := ev.Ex.PosAlive
	if posCand != nil {
		// Intersect into a scratch buffer owned by the evaluator instead of
		// cloning the candidate mask on every call.
		ev.scratch = IntersectInto(ev.scratch, posCand, ev.Ex.PosAlive)
		testPos = ev.scratch
	}
	testPos.ForEach(func(i int) bool {
		if ev.M.CoversQuery(q, ev.Ex.Pos[i]) {
			pos.Set(i)
		}
		return true
	})
	if negCand != nil {
		negCand.ForEach(func(i int) bool {
			if ev.M.CoversQuery(q, ev.Ex.Neg[i]) {
				neg.Set(i)
			}
			return true
		})
		return pos, neg
	}
	for i := range ev.Ex.Neg {
		if ev.M.CoversQuery(q, ev.Ex.Neg[i]) {
			neg.Set(i)
		}
	}
	return pos, neg
}

// compile compiles rule once for the whole call into the evaluator's query
// buffer: what is constant per rule is derived here, not per example.
func (ev *Evaluator) compile(rule *logic.Clause) *solve.Query {
	ev.M.CompileQuery(&ev.query, rule)
	return &ev.query
}

// CoverageBatch evaluates a batch of rules serially, one Coverage call per
// rule. The serial evaluator gains nothing from batching; the method exists
// so the search layer can issue whole-frontier calls against any FullCoverer.
func (ev *Evaluator) CoverageBatch(rules []*logic.Clause, posCands, negCands []Bitset) []CoverResult {
	return coverageLoop(ev, rules, posCands, negCands)
}

// CoverageFullBatch evaluates a rules bag serially (see CoverageFull).
func (ev *Evaluator) CoverageFullBatch(rules []*logic.Clause) []CoverResult {
	out := make([]CoverResult, len(rules))
	for i, r := range rules {
		out[i].Pos, out[i].Neg = ev.CoverageFull(r)
	}
	return out
}

// CoverageCounts evaluates rule over all alive positives and all negatives
// and returns the counts (used for rules-bag evaluation, Fig. 6
// evaluate_rules).
func (ev *Evaluator) CoverageCounts(rule *logic.Clause) (pos, neg int) {
	p, n := ev.Coverage(rule, nil, nil)
	return p.Count(), n.Count()
}

// CoverageFull evaluates rule over every positive — retracted or not — and
// every negative. Coverage over a fixed example set is intrinsic to the
// rule, so callers can memoise the result and derive alive counts by
// masking with the current alive set (the standard coverage-caching
// optimisation of MDIE engines; the p²-mdie workers use it to make
// repeated rules-bag evaluations cheap).
func (ev *Evaluator) CoverageFull(rule *logic.Clause) (pos, neg Bitset) {
	pos = NewBitset(len(ev.Ex.Pos))
	neg = NewBitset(len(ev.Ex.Neg))
	q := ev.compile(rule)
	for i := range ev.Ex.Pos {
		if ev.M.CoversQuery(q, ev.Ex.Pos[i]) {
			pos.Set(i)
		}
	}
	for i := range ev.Ex.Neg {
		if ev.M.CoversQuery(q, ev.Ex.Neg[i]) {
			neg.Set(i)
		}
	}
	return pos, neg
}

// Theory is a theory compiled once for prediction over many examples on one
// machine.
type Theory struct {
	m       *solve.Machine
	queries []solve.Query
}

// CompileTheory compiles every rule of theory for m.
func CompileTheory(m *solve.Machine, theory []logic.Clause) *Theory {
	return &Theory{m: m, queries: m.CompileQueries(theory)}
}

// Covers reports whether any rule of the theory covers the ground example
// atom.
func (t *Theory) Covers(example logic.Term) bool {
	for i := range t.queries {
		if t.m.CoversQuery(&t.queries[i], example) {
			return true
		}
	}
	return false
}

// TheoryCovers is the one-shot form of Theory.Covers, for a single example.
func TheoryCovers(m *solve.Machine, theory []logic.Clause, example logic.Term) bool {
	for i := range theory {
		if m.CoversExample(&theory[i], example) {
			return true
		}
	}
	return false
}
