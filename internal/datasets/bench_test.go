package datasets

import (
	"runtime"
	"testing"

	"repro/internal/solve"
	"repro/internal/xval"
)

// benchSizes are the paper datasets at the sizes the benchmark (bench/)
// measures them.
var benchSizes = []struct {
	name string
	gen  func() *Dataset
}{
	{"carcinogenesis", func() *Dataset { return CarcinogenesisSized(162, 136, 1) }},
	{"mesh", func() *Dataset { return MeshSized(710, 69, 1) }},
	{"pyrimidines", func() *Dataset { return PyrimidinesSized(84, 76, 1) }},
}

// BenchmarkGenerate builds each paper dataset at the size the benchmark
// measures it: what every process of a data-parallel run pays before its
// first epoch. Run with -benchmem.
func BenchmarkGenerate(b *testing.B) {
	for _, g := range benchSizes {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g.gen()
			}
		})
	}
}

// BenchmarkSetup is the benchmark's set-up of a learn workload in process:
// on a collected heap (the collection outside the timer), generate the
// dataset, split it into 5 folds, and prove fold 0's first training positive
// on a new machine, which compiles the KB. It times generation and compile
// together, with whatever collection the one leaves due for the other;
// BenchmarkGenerate and solve's BenchmarkCompileKB time each alone.
func BenchmarkSetup(b *testing.B) {
	for _, g := range benchSizes {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				ds := g.gen()
				folds, err := xval.KFold(ds.Pos, ds.Neg, 5, 1)
				if err != nil {
					b.Fatal(err)
				}
				solve.NewMachine(ds.KB, solve.DefaultBudget).ProveAtom(folds[0].TrainPos[0])
			}
		})
	}
}
