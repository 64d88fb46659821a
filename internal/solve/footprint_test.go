package solve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/logic"
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

// TestFootprintPinned pins KB.Footprint, the per-example cost that
// sched.DealByCost balances partitions by, on every example of the bundled
// datasets: the footprint of each example's individual (its first argument),
// positives then negatives, summed and hashed in order. The values are the
// ones the argument indexes of the knowledge base gave before the compiled
// switches took their place.
func TestFootprintPinned(t *testing.T) {
	for _, tc := range []struct {
		ds   *datasets.Dataset
		sum  int
		hash string
	}{
		{datasets.Carcinogenesis(1), 7491, "cff07e129050af0b"},
		{datasets.Mesh(1), 12472, "c615e8f677defb9d"},
		{datasets.Pyrimidines(1), 4836, "37bf48f760fa7d38"},
		{datasets.Trains(), 22, "5e7c7102c6d79be8"},
	} {
		h, sum := sha256.New(), 0
		for _, ex := range append(append([]logic.Term(nil), tc.ds.Pos...), tc.ds.Neg...) {
			c := ex
			if ex.Kind == logic.Compound && len(ex.Args) > 0 {
				c = ex.Args[0]
			}
			n := tc.ds.KB.Footprint(c)
			sum += n
			fmt.Fprintf(h, "%d,", n)
		}
		got := hex.EncodeToString(h.Sum(nil)[:8])
		if sum != tc.sum || got != tc.hash {
			t.Errorf("%s: footprints sum to %d, hash %s; want %d, %s", tc.ds.Name, sum, got, tc.sum, tc.hash)
		}
	}
}

// TestCompileAllocBudget pins what compiling the carcinogenesis KB at scale
// 1 allocates: the program is laid out in a few exactly sized arenas (95
// allocations, 3.47 MB measured), where a clause, a head stream, a candidate
// list and its keys each used to be an allocation of their own (30 192
// allocations, 3.81 MB). A compiler step that allocates per clause or per
// list again crosses the 1 000 allocations; the bytes may not exceed what
// the per-object layout took.
func TestCompileAllocBudget(t *testing.T) {
	kb := datasets.Carcinogenesis(1).KB
	allocs := testing.AllocsPerRun(3, func() { solve.CompileKB(kb) })
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		solve.CompileKB(kb)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("compiling %d clauses: %.0f allocations, %d bytes", kb.Size(), allocs, bytes)
	if allocs > 1000 {
		t.Errorf("compile allocates %.0f times, budget 1000", allocs)
	}
	const budget = 3_811_010
	if bytes > budget {
		t.Errorf("compile allocates %d bytes, budget %d", bytes, budget)
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
