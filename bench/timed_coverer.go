package main

import (
	"time"

	"repro/internal/logic"
	"repro/internal/search"
)

// TimedCoverer decorates a search.FullCoverer with wall-clock accounting:
// the time spent inside coverage evaluation (the prover's share of a rule
// search, seen from the search layer), and how many calls and rules it was
// asked to score. It implements BatchCoverer and FullCoverer so LearnRule
// keeps using the whole-frontier batch path; results pass through
// untouched, so a search over it learns the byte-identical rule.
type TimedCoverer struct {
	inner  search.FullCoverer
	tr     *tracer
	lane   string
	op     int
	parent int // span the coverage spans hang under (the running LearnRule)

	Busy    time.Duration
	Batches int64 // coverage calls of any kind
	Rules   int64 // rules scored across all calls
}

// NewTimedCoverer wraps inner; tr may be nil.
func NewTimedCoverer(inner search.FullCoverer, tr *tracer, lane string, op int) *TimedCoverer {
	return &TimedCoverer{inner: inner, tr: tr, lane: lane, op: op}
}

// SetParent names the span under which the following coverage spans nest.
func (c *TimedCoverer) SetParent(id int) { c.parent = id }

func (c *TimedCoverer) timed(rules int, start time.Time) {
	end := time.Now()
	c.Busy += end.Sub(start)
	c.Batches++
	c.Rules += int64(rules)
	if c.tr != nil {
		c.tr.add(c.lane, "solve.coverage", c.parent, c.op, start, end)
	}
}

func (c *TimedCoverer) Coverage(rule *logic.Clause, posCand, negCand search.Bitset) (pos, neg search.Bitset) {
	defer c.timed(1, time.Now())
	return c.inner.Coverage(rule, posCand, negCand)
}

func (c *TimedCoverer) CoverageBatch(rules []*logic.Clause, posCands, negCands []search.Bitset) []search.CoverResult {
	defer c.timed(len(rules), time.Now())
	return search.CoverageBatchOf(c.inner, rules, posCands, negCands)
}

func (c *TimedCoverer) CoverageFull(rule *logic.Clause) (pos, neg search.Bitset) {
	defer c.timed(1, time.Now())
	return c.inner.CoverageFull(rule)
}

func (c *TimedCoverer) CoverageFullBatch(rules []*logic.Clause) []search.CoverResult {
	defer c.timed(len(rules), time.Now())
	return c.inner.CoverageFullBatch(rules)
}

func (c *TimedCoverer) PosLen() int          { return c.inner.PosLen() }
func (c *TimedCoverer) NegLen() int          { return c.inner.NegLen() }
func (c *TimedCoverer) OwnInferences() int64 { return c.inner.OwnInferences() }
func (c *TimedCoverer) Close()               { c.inner.Close() }

var (
	_ search.BatchCoverer = (*TimedCoverer)(nil)
	_ search.FullCoverer  = (*TimedCoverer)(nil)
)
