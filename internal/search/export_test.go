package search

import "repro/internal/logic"

// WarmBatch runs the batch once on ev, so that its coverage memo knows every
// answer, and returns a call that runs it again into the same results,
// zeroed first instead of allocated: the memo's hit path alone, which
// BenchmarkCoverageBatchFrontier/memo times and TestEvaluatorBatchAllocs
// holds allocation-free.
func (ev *Evaluator) WarmBatch(rules []*logic.Clause, posCands, negCands []Bitset) func() {
	out := make([]CoverResult, len(rules))
	for i := range out {
		out[i] = CoverResult{Pos: NewBitset(len(ev.Ex.Pos)), Neg: NewBitset(len(ev.Ex.Neg))}
	}
	ev.coverBatch(out, rules, posCands, negCands)
	return func() {
		for i := range out {
			clear(out[i].Pos)
			clear(out[i].Neg)
		}
		ev.coverBatch(out, rules, posCands, negCands)
	}
}

// MemoReplayed reports the charge the evaluator's coverage memo has paid
// through solve.Machine.ReplayQuery instead of proving.
func (ev *Evaluator) MemoReplayed() int64 { return ev.memo.replayed }

// MemoOverflows reports how many answers the evaluator's memo holds whose
// charge is too large for a slab byte.
func (ev *Evaluator) MemoOverflows() int { return len(ev.memo.over) }
