// Package covering implements the sequential MDIE covering algorithm of the
// paper's Figure 1: repeatedly select an uncovered positive example,
// saturate it into a bottom clause, search for the best acceptable rule,
// add it to the theory and retract the positives it covers, until every
// positive example is explained.
//
// This is the April-equivalent baseline all the paper's speedup tables are
// measured against.
package covering

import (
	"time"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
	"repro/internal/theory"
)

// Config parameterises a sequential run.
type Config struct {
	// Search configures the per-rule search (Fig. 2).
	Search search.Settings
	// Bottom configures saturation.
	Bottom bottom.Options
	// Budget bounds each individual proof.
	Budget solve.Budget
}

// maxRules stops a runaway covering loop.
const maxRules = 1000

// Result summarises a sequential covering run.
type Result struct {
	// Theory is the learned rule set, in acceptance order.
	Theory []logic.Clause
	// RulesLearned counts searched (non-fallback) rules in the theory.
	RulesLearned int
	// GroundFactsAdopted counts positives adopted verbatim because no
	// acceptable rule generalised them.
	GroundFactsAdopted int
	// Searches counts learn_rule invocations (one per covering iteration).
	Searches int
	// GeneratedRules counts rules evaluated across all searches.
	GeneratedRules int
	// Inferences is the total SLD work performed.
	Inferences int64
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// Learn runs the covering loop over ex (mutating its alive mask) against the
// background kb under the mode set ms.
func Learn(kb *solve.KB, ex *search.Examples, ms *mode.Set, cfg Config) (*Result, error) {
	start := time.Now()
	m := solve.NewMachine(kb, cfg.Budget)
	ev := search.NewEvaluator(m, ex)
	defer ev.Close()
	res := &Result{}

	for ex.NumPosAlive() > 0 && len(res.Theory) < maxRules {
		seed := ex.FirstAlivePos()
		example := ex.Pos[seed]
		bot, err := bottom.Construct(m, ms, example, cfg.Bottom)
		if err != nil {
			return nil, err
		}
		sr := search.LearnRule(ev, bot, nil, cfg.Search)
		res.Searches++
		res.GeneratedRules += sr.Generated
		best := sr.Best()
		if best == nil || best.PosCover().Empty() {
			// No acceptable generalisation: adopt the example itself so the
			// loop always progresses (Aleph's standard fallback).
			res.Theory = append(res.Theory, logic.Fact(example))
			res.GroundFactsAdopted++
			single := search.NewBitset(len(ex.Pos))
			single.Set(seed)
			ex.RetractPos(single)
			continue
		}
		clause := best.Materialize(bot).Canonical()
		res.Theory = append(res.Theory, clause)
		res.RulesLearned++
		ex.RetractPos(best.PosCover())
	}

	res.Inferences = m.TotalInferences()
	res.Duration = time.Since(start)
	return res, nil
}

// Accuracy evaluates a theory on a labelled test set and returns the
// fraction of correctly classified examples: covered positives plus
// uncovered negatives over all examples.
func Accuracy(kb *solve.KB, th []logic.Clause, pos, neg []logic.Term, budget solve.Budget) float64 {
	return theory.Evaluate(kb, th, pos, neg, budget).Accuracy()
}
