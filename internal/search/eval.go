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
		out[i].Pos, out[i].Neg = ev.Coverage(r, maskAt(posCands, i), maskAt(negCands, i))
	}
	return out
}

// maskAt is rule i's candidate mask; a nil slice means all-nil.
func maskAt(masks []Bitset, i int) Bitset {
	if masks == nil {
		return nil
	}
	return masks[i]
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
// specialisation can only shrink coverage. Each coverage question — a rule
// up to variable renaming against one example — is proved once and replayed
// after that (memo.go).
type Evaluator struct {
	M  *solve.Machine
	Ex *Examples

	scratch Bitset      // reused candidate-mask buffer; never escapes Coverage
	query   solve.Query // the rule under evaluation, recompiled in place per rule
	memo    coverMemo

	// Scratch of CoverageBatch, reused from batch to batch: the group being
	// collected (indices into the batch, the rules themselves and where
	// their memo slabs start), which rules an earlier group already took,
	// the compiled pack, its per-example answers and the members the memo
	// already answers.
	members []int
	fan     []*logic.Clause
	slabAt  []int
	taken   []bool
	pack    solve.QueryPack
	hit     []bool
	known   []bool
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
	ev.memo.begin(ev.M, ev.Ex)
	pos, neg = NewBitset(len(ev.Ex.Pos)), NewBitset(len(ev.Ex.Neg))
	ev.cover(rule, ev.memo.slab(rule), posCand, negCand, pos, neg)
	return pos, neg
}

// cover is Coverage into zeroed bitsets, within a call begun on the memo;
// at is rule's slab.
func (ev *Evaluator) cover(rule *logic.Clause, at int, posCand, negCand Bitset, pos, neg Bitset) {
	q := ev.compile(rule)
	ev.testedPos(posCand).ForEach(func(i int) bool {
		if ev.covers(q, at+i, ev.Ex.Pos[i]) {
			pos.Set(i)
		}
		return true
	})
	at += len(ev.Ex.Pos)
	ev.eachTestedNeg(negCand, func(i int) bool {
		if ev.covers(q, at+i, ev.Ex.Neg[i]) {
			neg.Set(i)
		}
		return true
	})
}

// covers answers one coverage question whose memo slab byte is at: by
// replay when the memo knows it, else by proving it and recording what the
// proof charged unless the budget cut it off.
func (ev *Evaluator) covers(q *solve.Query, at int, example logic.Term) bool {
	if covered, ok := ev.memo.known(ev.M, at); ok {
		return covered
	}
	inf, cut := ev.M.TotalInferences(), ev.M.CutoffQueries()
	covered := ev.M.CoversQuery(q, example)
	if ev.M.CutoffQueries() == cut {
		ev.memo.store(at, covered, ev.M.TotalInferences()-inf)
	}
	return covered
}

// testedPos is the set of positives a coverage call tests under posCand:
// the alive ones, within the mask if there is one. The result may be the
// evaluator's scratch buffer, valid until the next call.
func (ev *Evaluator) testedPos(posCand Bitset) Bitset {
	if posCand == nil {
		return ev.Ex.PosAlive
	}
	// Intersect into a scratch buffer owned by the evaluator instead of
	// cloning the candidate mask on every call.
	ev.scratch = IntersectInto(ev.scratch, posCand, ev.Ex.PosAlive)
	return ev.scratch
}

// eachTestedNeg visits the negatives a coverage call tests under negCand:
// the mask's, or all of them without one.
func (ev *Evaluator) eachTestedNeg(negCand Bitset, visit func(i int) bool) {
	if negCand != nil {
		negCand.ForEach(visit)
		return
	}
	for i := range ev.Ex.Neg {
		visit(i)
	}
}

// compile compiles rule once for the whole call into the evaluator's query
// buffer: what is constant per rule is derived here, not per example.
func (ev *Evaluator) compile(rule *logic.Clause) *solve.Query {
	ev.M.CompileQuery(&ev.query, rule)
	return &ev.query
}

// CoverageBatch evaluates a batch of rules, sharing what the rules share. A
// search frontier is mostly "parent body + one new literal" under the
// parent's masks (LearnRule's evaluateFrontier) — appended when the search
// grew the parent itself, inserted mid-body when a ring stage resumed from
// seeds whose parents it never expanded — so the batch is grouped from the
// clauses themselves: same head, same candidate masks, equally long bodies
// that differ at exactly one position d ≥ 1. The group's first two members
// fix d, and every group of two or more runs as one solve.QueryPack: per
// example the d shared literals are proved once and each member only adds
// its own suffix. Each member is still charged its stand-alone proof, so
// bits, TotalInferences and CutoffQueries are those of len(rules) Coverage
// calls; only StepsExecuted falls. Rules with no sibling in the batch —
// root children, position-0 inserts — take the Coverage path as they are.
func (ev *Evaluator) CoverageBatch(rules []*logic.Clause, posCands, negCands []Bitset) []CoverResult {
	out := make([]CoverResult, len(rules))
	for i := range out {
		out[i].Pos, out[i].Neg = NewBitset(len(ev.Ex.Pos)), NewBitset(len(ev.Ex.Neg))
	}
	ev.coverBatch(out, rules, posCands, negCands)
	return out
}

// coverBatch is CoverageBatch into out's zeroed bitsets.
func (ev *Evaluator) coverBatch(out []CoverResult, rules []*logic.Clause, posCands, negCands []Bitset) {
	ev.memo.begin(ev.M, ev.Ex)
	if cap(ev.taken) < len(rules) {
		ev.taken = make([]bool, len(rules))
		ev.hit = make([]bool, len(rules))
		ev.known = make([]bool, len(rules))
	}
	taken := ev.taken[:len(rules)]
	clear(taken)
	for i, r := range rules {
		if taken[i] {
			continue
		}
		pc, nc := maskAt(posCands, i), maskAt(negCands, i)
		ev.members, ev.fan = append(ev.members[:0], i), append(ev.fan[:0], r)
		ev.slabAt = append(ev.slabAt[:0], ev.memo.slab(r))
		d := 0 // where the group's bodies differ; 0 until a sibling fixes it
		if len(r.Body) >= 2 {
			for j := i + 1; j < len(rules); j++ {
				if taken[j] || !sameMask(pc, maskAt(posCands, j)) || !sameMask(nc, maskAt(negCands, j)) {
					continue
				}
				if at := fanPos(r, rules[j]); at >= 1 && (d == 0 || at == d) {
					d = at
					taken[j] = true
					ev.members, ev.fan = append(ev.members, j), append(ev.fan, rules[j])
					ev.slabAt = append(ev.slabAt, ev.memo.slab(rules[j]))
				}
			}
		}
		if len(ev.members) == 1 {
			ev.cover(r, ev.slabAt[0], pc, nc, out[i].Pos, out[i].Neg)
			continue
		}
		ev.coverFan(out, pc, nc, d)
	}
}

// coverFan evaluates the collected group ev.members/ev.fan, whose bodies
// share their first d literals, as one pack over the examples Coverage would
// test, writing each member's result into out.
func (ev *Evaluator) coverFan(out []CoverResult, posCand, negCand Bitset, d int) {
	ev.M.CompilePack(&ev.pack, ev.fan, d)
	ev.testedPos(posCand).ForEach(func(e int) bool {
		ev.coversFan(e, ev.Ex.Pos[e])
		for c, h := range ev.hit[:len(ev.members)] {
			if h {
				out[ev.members[c]].Pos.Set(e)
			}
		}
		return true
	})
	npos := len(ev.Ex.Pos)
	ev.eachTestedNeg(negCand, func(e int) bool {
		ev.coversFan(npos+e, ev.Ex.Neg[e])
		for c, h := range ev.hit[:len(ev.members)] {
			if h {
				out[ev.members[c]].Neg.Set(e)
			}
		}
		return true
	})
}

// coversFan sets ev.hit for every member of the group on one example, whose
// byte in each member's slab is at e: the members the memo knows are
// replayed, the pack runs the others — not at all when there are none — and
// their answers are recorded unless any proof of the pass was cut off.
func (ev *Evaluator) coversFan(e int, example logic.Term) {
	n := len(ev.members)
	hit, known := ev.hit[:n], ev.known[:n]
	unknown := false
	for c, at := range ev.slabAt {
		known[c] = ev.memo.slabs[at+e] != 0
		unknown = unknown || !known[c]
	}
	if unknown {
		cut := ev.M.CutoffQueries()
		ev.M.CoversPack(&ev.pack, example, hit, known)
		if ev.M.CutoffQueries() == cut {
			for c, at := range ev.slabAt {
				if !known[c] {
					ev.memo.store(at+e, hit[c], ev.pack.Charged(c))
				}
			}
		}
	}
	for c, at := range ev.slabAt {
		if known[c] {
			hit[c], _ = ev.memo.known(ev.M, at+e)
		}
	}
}

// sameMask reports whether two candidate masks are one and the same: both
// nil, or the same backing array. Equal contents in different arrays do not
// count — a frontier hands every child its parent's own bitsets, and
// comparing words would cost what it saves on batches that are not one.
func sameMask(a, b Bitset) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// fanPos returns the one body position at which siblings a and b differ, or
// -1 when a query pack cannot run them together: different heads, different
// body lengths, or bodies that differ at several positions or at none. The
// comparison runs from the back because an appended child differs there and
// two rules of different parents usually do too.
func fanPos(a, b *logic.Clause) int {
	if len(a.Body) != len(b.Body) || !sameTerm(a.Head, b.Head) {
		return -1
	}
	at := -1
	for i := len(a.Body) - 1; i >= 0; i-- {
		if a.Body[i].Neg != b.Body[i].Neg || !sameTerm(a.Body[i].Atom, b.Body[i].Atom) {
			if at >= 0 {
				return -1
			}
			at = i
		}
	}
	return at
}

// sameTerm is logic.Equal with a fast path for the common case: literals
// materialized from one bottom clause share their argument arrays.
func sameTerm(a, b logic.Term) bool {
	if a.Kind != b.Kind || a.Sym != b.Sym || len(a.Args) != len(b.Args) {
		return false
	}
	if len(a.Args) > 0 && &a.Args[0] == &b.Args[0] {
		return true
	}
	return logic.Equal(a, b)
}

// CoverageFullBatch evaluates a rules bag serially (see CoverageFull).
func (ev *Evaluator) CoverageFullBatch(rules []*logic.Clause) []CoverResult {
	ev.memo.begin(ev.M, ev.Ex)
	out := make([]CoverResult, len(rules))
	for i, r := range rules {
		out[i].Pos, out[i].Neg = ev.coverFull(r)
	}
	return out
}

// CoverageFull evaluates rule over every positive — retracted or not — and
// every negative. Coverage over a fixed example set is intrinsic to the
// rule, so callers can memoise the result and derive alive counts by
// masking with the current alive set (the standard coverage-caching
// optimisation of MDIE engines; the p²-mdie workers use it to make
// repeated rules-bag evaluations cheap).
func (ev *Evaluator) CoverageFull(rule *logic.Clause) (pos, neg Bitset) {
	ev.memo.begin(ev.M, ev.Ex)
	return ev.coverFull(rule)
}

// coverFull is CoverageFull within a call begun on the memo.
func (ev *Evaluator) coverFull(rule *logic.Clause) (pos, neg Bitset) {
	pos, neg = NewBitset(len(ev.Ex.Pos)), NewBitset(len(ev.Ex.Neg))
	q, at := ev.compile(rule), ev.memo.slab(rule)
	for i, ex := range ev.Ex.Pos {
		if ev.covers(q, at+i, ex) {
			pos.Set(i)
		}
	}
	at += len(ev.Ex.Pos)
	for i, ex := range ev.Ex.Neg {
		if ev.covers(q, at+i, ex) {
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
