// Package theory post-processes learned rule sets: redundancy removal via
// θ-subsumption (both between rules and inside each rule's body) and
// confusion-matrix evaluation. MDIE covering can emit overlapping rules —
// especially p²-mdie, whose epochs accept several rules from independently
// partitioned searches — so downstream users routinely want the minimised
// equivalent theory.
package theory

import (
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
)

// ReduceRules removes clauses subsumed by another clause of the theory
// (keeping the subsuming, more general one; first occurrence wins among
// subsume-equivalent rules). Coverage is preserved: a subsumed clause's
// coverage is a subset of its subsumer's.
func ReduceRules(theory []logic.Clause) []logic.Clause {
	var out []logic.Clause
	for i := range theory {
		redundant := false
		for j := range theory {
			if i == j {
				continue
			}
			if !logic.Subsumes(&theory[j], &theory[i]) {
				continue
			}
			// j subsumes i. Drop i unless they are subsume-equivalent and
			// i comes first (keep the earlier of equivalent rules).
			if logic.Subsumes(&theory[i], &theory[j]) && i < j {
				continue
			}
			redundant = true
			break
		}
		if !redundant {
			out = append(out, theory[i])
		}
	}
	return out
}

// ReduceBodies applies Plotkin reduction to every clause, dropping body
// literals that are redundant under θ-subsumption.
func ReduceBodies(theory []logic.Clause) []logic.Clause {
	out := make([]logic.Clause, len(theory))
	for i := range theory {
		out[i] = logic.ReducesTo(&theory[i])
	}
	return out
}

// Minimize composes ReduceBodies and ReduceRules and canonicalises the
// remaining clauses.
func Minimize(theory []logic.Clause) []logic.Clause {
	reduced := ReduceRules(ReduceBodies(theory))
	out := make([]logic.Clause, len(reduced))
	for i := range reduced {
		out[i] = reduced[i].Canonical()
	}
	return out
}

// Stats summarises a theory's shape.
type Stats struct {
	Rules         int // clauses with a non-empty body
	Facts         int // bodiless clauses (adopted examples)
	Literals      int // total body literals
	MaxBodyLen    int
	BodyPredCount int // distinct body predicates
}

// AvgBodyLen returns the mean body length over rules (0 if no rules).
func (s Stats) AvgBodyLen() float64 {
	if s.Rules == 0 {
		return 0
	}
	return float64(s.Literals) / float64(s.Rules)
}

func (s Stats) String() string {
	return fmt.Sprintf("theory{rules: %d, facts: %d, avg body: %.1f, max body: %d, predicates: %d}",
		s.Rules, s.Facts, s.AvgBodyLen(), s.MaxBodyLen, s.BodyPredCount)
}

// Summarize computes Stats for a theory.
func Summarize(theory []logic.Clause) Stats {
	var st Stats
	preds := map[logic.PredKey]bool{}
	for i := range theory {
		c := &theory[i]
		if c.IsFact() {
			st.Facts++
			continue
		}
		st.Rules++
		st.Literals += len(c.Body)
		if len(c.Body) > st.MaxBodyLen {
			st.MaxBodyLen = len(c.Body)
		}
		for _, l := range c.Body {
			preds[l.Atom.Pred()] = true
		}
	}
	st.BodyPredCount = len(preds)
	return st
}

// Confusion is a binary confusion matrix of a theory over labelled
// examples: the theory predicts positive iff some rule covers the example.
type Confusion struct {
	TP, FN int // positives covered / missed
	FP, TN int // negatives covered / rejected
}

// Evaluate scores theory on the labelled examples against kb.
func Evaluate(kb *solve.KB, theory []logic.Clause, pos, neg []logic.Term, budget solve.Budget) Confusion {
	t := search.CompileTheory(solve.NewMachine(kb, budget), theory)
	var c Confusion
	for _, e := range pos {
		if t.Covers(e) {
			c.TP++
		} else {
			c.FN++
		}
	}
	for _, e := range neg {
		if t.Covers(e) {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c
}

// Accuracy is (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FN + c.FP + c.TN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// Precision is TP/(TP+FP).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (c Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "confusion{TP: %d, FN: %d, FP: %d, TN: %d; acc %.3f, prec %.3f, rec %.3f, f1 %.3f}",
		c.TP, c.FN, c.FP, c.TN, c.Accuracy(), c.Precision(), c.Recall(), c.F1())
	return b.String()
}
