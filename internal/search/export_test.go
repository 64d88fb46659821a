package search

import "repro/internal/logic"

// CoverBatchInto is CoverageBatch writing into out's zeroed bitsets instead
// of allocating them, so a benchmark can time the memo's hit path alone.
func (ev *Evaluator) CoverBatchInto(out []CoverResult, rules []*logic.Clause, posCands, negCands []Bitset) {
	ev.coverBatch(out, rules, posCands, negCands)
}
