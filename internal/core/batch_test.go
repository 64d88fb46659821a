package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/logic"
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

// TestP2BatchedMatchesUnbatched pins batching as a pure performance choice
// in the full pipelined algorithm: per-node frontier batches in the stage
// searches plus whole-bag batches in evaluate_rules must leave theory,
// epochs, communication, generated-rule and inference totals what the
// per-candidate reference produced — a run whose workers scored every
// candidate and every bag rule with its own Coverage call — pinned as it
// read when workers could still be built that way. The virtual time is not
// pinned: it depends on the order in which the simulated nodes' goroutines
// deliver (ROADMAP item 14).
func TestP2BatchedMatchesUnbatched(t *testing.T) {
	const (
		sha        = "20d0df9876d1f1387c12bcd1ef3cff0aa3869bd245bb1738348e0868897876b1"
		epochs     = 4
		bytes      = 25171
		messages   = 129
		generated  = 5370
		inferences = 680868
	)
	ds := datasets.CarcinogenesisSized(24, 20, 1)
	got, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, Config{
		Workers: 4, Width: 10, Seed: 1,
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum := theorySHA(got.Theory); sum != sha {
		t.Fatalf("theory %s, pinned %s", sum, sha)
	}
	if got.Epochs != epochs || got.CommBytes != bytes || got.CommMessages != messages {
		t.Fatalf("simulation diverged: epochs %d, bytes %d, msgs %d; pinned %d, %d, %d",
			got.Epochs, got.CommBytes, got.CommMessages, epochs, bytes, messages)
	}
	if got.GeneratedRules != generated || got.TotalInferences != inferences {
		t.Fatalf("work diverged: generated %d, inferences %d; pinned %d, %d",
			got.GeneratedRules, got.TotalInferences, generated, inferences)
	}
}
