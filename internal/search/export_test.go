package search

import "repro/internal/logic"

// CoverBatchInto is CoverageBatch writing into out's zeroed bitsets instead
// of allocating them, so a benchmark can time the memo's hit path alone.
func (ev *Evaluator) CoverBatchInto(out []CoverResult, rules []*logic.Clause, posCands, negCands []Bitset) {
	ev.coverBatch(out, rules, posCands, negCands)
}

// MemoReplayed reports the charge the evaluator's coverage memo has paid
// through solve.Machine.ReplayQuery instead of proving.
func (ev *Evaluator) MemoReplayed() int64 { return ev.memo.replayed }

// MemoOverflows reports how many answers the evaluator's memo holds whose
// charge is too large for a slab byte.
func (ev *Evaluator) MemoOverflows() int { return len(ev.memo.over) }
