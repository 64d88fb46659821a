package covering

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/search"
)

// perRule hides the evaluator's batch entry point — search.FullCoverer
// declares no CoverageBatch — so search.CoverageBatchOf takes its per-rule
// loop: one Coverage call per candidate.
type perRule struct{ search.FullCoverer }

// TestBatchedSearchMatchesUnbatchedOnPaperDatasets pins that
// whole-frontier batched candidate evaluation is a pure performance
// choice. The full covering loop runs on each paper dataset batched,
// serial and pooled, and once through perRule, and every observable —
// theory, rule/fact counts, generated-rule counts, total inference
// charge — must be bit-for-bit identical.
func TestBatchedSearchMatchesUnbatchedOnPaperDatasets(t *testing.T) {
	for _, ds := range datasets.PaperScaled(0.1, 7) {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			run := func(unbatched bool, parallelism int) *Result {
				cfg := Config{
					Search:           ds.Search,
					Bottom:           ds.Bottom,
					Budget:           ds.Budget,
					CoverParallelism: parallelism,
				}
				if unbatched {
					cfg.wrapCoverer = func(ev search.FullCoverer) search.FullCoverer { return perRule{ev} }
				}
				ex := search.NewExamples(ds.Pos, ds.Neg)
				res, err := Learn(ds.KB, ex, ds.Modes, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(true, 0) // the per-candidate reference
			for _, c := range []struct {
				name        string
				parallelism int
			}{
				{"batched-serial", 0},
				{"batched-pool", 4},
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
				if got.RulesLearned != want.RulesLearned || got.GroundFactsAdopted != want.GroundFactsAdopted ||
					got.Searches != want.Searches || got.GeneratedRules != want.GeneratedRules {
					t.Fatalf("%s: counts (%d,%d,%d,%d), want (%d,%d,%d,%d)", c.name,
						got.RulesLearned, got.GroundFactsAdopted, got.Searches, got.GeneratedRules,
						want.RulesLearned, want.GroundFactsAdopted, want.Searches, want.GeneratedRules)
				}
				if got.Inferences != want.Inferences {
					t.Fatalf("%s: inferences %d, want %d", c.name, got.Inferences, want.Inferences)
				}
			}
		})
	}
}
