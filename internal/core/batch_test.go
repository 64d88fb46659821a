package core

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/search"
)

// perRule turns both of the evaluator's batch entry points back into
// per-rule loops: search.FullCoverer declares no CoverageBatch, so
// search.CoverageBatchOf calls Coverage once per candidate, and the
// evaluate_rules bag is scored one CoverageFull at a time.
type perRule struct{ search.FullCoverer }

func (p perRule) CoverageFullBatch(rules []*logic.Clause) []search.CoverResult {
	out := make([]search.CoverResult, len(rules))
	for i, r := range rules {
		out[i].Pos, out[i].Neg = p.CoverageFull(r)
	}
	return out
}

// TestP2BatchedMatchesUnbatched pins batching as a pure performance choice
// in the full pipelined algorithm: per-node frontier batches in the stage
// searches plus whole-bag batches in evaluate_rules must leave every
// simulated observable — theory, epochs, virtual time, communication,
// generated-rule and inference totals — bit-for-bit identical to the
// perRule run, with the evaluator serial or pooled.
func TestP2BatchedMatchesUnbatched(t *testing.T) {
	ds := datasets.CarcinogenesisSized(24, 20, 1)
	run := func(unbatched bool, parallelism int) *Metrics {
		cfg := Config{
			Workers: 4, Width: 10, Seed: 1,
			Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
			CoverParallelism: parallelism,
		}
		if unbatched {
			cfg.wrapCoverer = func(ev search.FullCoverer) search.FullCoverer { return perRule{ev} }
		}
		met, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	want := run(true, 0) // the per-candidate reference
	for _, c := range []struct {
		name        string
		parallelism int
	}{
		{"batched-serial", 0},
		{"batched-pool", 2},
	} {
		got := run(false, c.parallelism)
		if len(got.Theory) != len(want.Theory) {
			t.Fatalf("%s: theory size %d, want %d", c.name, len(got.Theory), len(want.Theory))
		}
		for i := range want.Theory {
			if got.Theory[i].String() != want.Theory[i].String() {
				t.Fatalf("%s: rule %d: %s, want %s", c.name, i, got.Theory[i], want.Theory[i])
			}
		}
		if got.Epochs != want.Epochs || got.VirtualTime != want.VirtualTime ||
			got.CommBytes != want.CommBytes || got.CommMessages != want.CommMessages {
			t.Fatalf("%s: simulation diverged: epochs %d/%d, virtual %v/%v, bytes %d/%d, msgs %d/%d",
				c.name, got.Epochs, want.Epochs, got.VirtualTime, want.VirtualTime,
				got.CommBytes, want.CommBytes, got.CommMessages, want.CommMessages)
		}
		if got.GeneratedRules != want.GeneratedRules || got.TotalInferences != want.TotalInferences {
			t.Fatalf("%s: work diverged: generated %d/%d, inferences %d/%d",
				c.name, got.GeneratedRules, want.GeneratedRules, got.TotalInferences, want.TotalInferences)
		}
	}
}
