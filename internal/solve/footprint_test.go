package solve_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/solve"
)

// parentFootprint is CompiledFootprint of the carcinogenesis KB under the
// compiler that gave every ground fact six head streams — a full one and one
// per skipped argument, each again as an equality stream — and a candidate
// two of them (amd64).
const parentFootprint = 8_791_156

// TestCompiledFootprint pins the compiled program's size on the largest
// bundled KB, carcinogenesis at scale 1: one head stream per clause must
// keep it under 45 % of the six-stream program's.
func TestCompiledFootprint(t *testing.T) {
	kb := datasets.Carcinogenesis(1).KB
	got := solve.CompiledFootprint(kb)
	t.Logf("carcinogenesis, %d clauses: compiled program %d B (%d B/clause), six streams a fact %d B (%d B/clause): %.1f %%",
		kb.Size(), got, got/kb.Size(), parentFootprint, parentFootprint/kb.Size(), 100*float64(got)/parentFootprint)
	if limit := parentFootprint * 45 / 100; got > limit {
		t.Errorf("compiled program is %d B, over the %d B bound (45 %% of %d)", got, limit, parentFootprint)
	}
}

// BenchmarkCompileKB compiles the carcinogenesis KB at scale 1 afresh.
func BenchmarkCompileKB(b *testing.B) {
	kb := datasets.Carcinogenesis(1).KB
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		solve.CompileKB(kb)
	}
}
