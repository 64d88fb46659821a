package covering

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/search"
)

// TestParallelCoverageMatchesSerialOnPaperDatasets runs the full covering
// loop on each paper dataset twice — serial coverage testing and sharded
// across 4 goroutines — and requires bit-for-bit identical outcomes: same
// theory, same rule/fact counts, same total inference charge. Per-query
// inference costs are independent of which machine runs the query, so even
// the work accounting must agree exactly.
func TestParallelCoverageMatchesSerialOnPaperDatasets(t *testing.T) {
	dss, err := datasets.PaperScaled(0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range dss {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			run := func(parallelism int) *Result {
				ex := search.NewExamples(ds.Pos, ds.Neg)
				res, err := Learn(ds.KB, ex, ds.Modes, Config{
					Search:           ds.Search,
					Bottom:           ds.Bottom,
					Budget:           ds.Budget,
					CoverParallelism: parallelism,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := run(0)
			par := run(4)
			if len(serial.Theory) != len(par.Theory) {
				t.Fatalf("theory size: serial %d, parallel %d", len(serial.Theory), len(par.Theory))
			}
			for i := range serial.Theory {
				if serial.Theory[i].String() != par.Theory[i].String() {
					t.Fatalf("rule %d: serial %s, parallel %s", i, serial.Theory[i], par.Theory[i])
				}
			}
			if serial.RulesLearned != par.RulesLearned || serial.GroundFactsAdopted != par.GroundFactsAdopted {
				t.Fatalf("counts: serial (%d, %d), parallel (%d, %d)",
					serial.RulesLearned, serial.GroundFactsAdopted, par.RulesLearned, par.GroundFactsAdopted)
			}
			if serial.GeneratedRules != par.GeneratedRules {
				t.Fatalf("generated: serial %d, parallel %d", serial.GeneratedRules, par.GeneratedRules)
			}
			if serial.Inferences != par.Inferences {
				t.Fatalf("inferences: serial %d, parallel %d", serial.Inferences, par.Inferences)
			}
		})
	}
}
