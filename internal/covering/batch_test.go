package covering

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/search"
)

// theorySHA is the SHA-256 of a theory's rules, one per line: what the
// pinned-theory tests compare.
func theorySHA(theory []logic.Clause) string {
	var sb strings.Builder
	for _, c := range theory {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// TestBatchedSearchMatchesUnbatchedOnPaperDatasets pins that
// whole-frontier batched candidate evaluation is a pure performance
// choice. The full covering loop runs batched on each paper dataset, and
// every observable — theory, rule/fact counts, search and generated-rule
// counts, total inference charge — must be what the per-candidate
// reference produced: a run that hid CoverageBatch from the search, one
// Coverage call per candidate, pinned as it read when covering could still
// be built that way (theory as the SHA-256 of its rules, one per line).
func TestBatchedSearchMatchesUnbatchedOnPaperDatasets(t *testing.T) {
	pinned := map[string]struct {
		sha                               string
		rules, facts, searches, generated int
		inferences                        int64
	}{
		"carcinogenesis": {"21cefc78b9efa0c5c1cb71a0e5ad9c305a5642fc6249b311179293aebc3d4c15", 2, 3, 5, 1802, 349172},
		"mesh":           {"1cc9de6000586d2b76ebe1c5f387dbcd02dcffdaeec571c94b22cc1481c28fcd", 11, 22, 33, 1192, 301902},
		"pyrimidines":    {"e86f31cdca58d8970ec73e0eeccdf7f978571fe85da388860291d53ebdbd0901", 2, 23, 25, 18398, 22085529},
	}
	dss, err := datasets.PaperScaled(0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range dss {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			want, ok := pinned[ds.Name]
			if !ok {
				t.Fatalf("no pin for %s", ds.Name)
			}
			got, err := Learn(ds.KB, search.NewExamples(ds.Pos, ds.Neg), ds.Modes, Config{
				Search: ds.Search,
				Bottom: ds.Bottom,
				Budget: ds.Budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sha := theorySHA(got.Theory); sha != want.sha {
				t.Fatalf("theory %s, pinned %s:\n%s", sha, want.sha, strings.Join(theoryStrings(got.Theory), "\n"))
			}
			if got.RulesLearned != want.rules || got.GroundFactsAdopted != want.facts ||
				got.Searches != want.searches || got.GeneratedRules != want.generated || got.Inferences != want.inferences {
				t.Fatalf("counts (%d,%d,%d,%d) and %d inferences, pinned (%d,%d,%d,%d) and %d",
					got.RulesLearned, got.GroundFactsAdopted, got.Searches, got.GeneratedRules, got.Inferences,
					want.rules, want.facts, want.searches, want.generated, want.inferences)
			}
		})
	}
}
