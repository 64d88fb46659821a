package covering

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/search"
	"repro/internal/xval"
)

// BenchmarkLearnSeqPyrim is the learn the benchmark's seq-pyrim workload
// times (bench/task.go, bench/wl_seq.go): pyrimidines 84+/76− from data seed
// 1, fold 0 of a 5-fold split with seed 1, the serial coverer. Every
// iteration learns on fresh example state; the first, untimed one compiles
// the KB and fills the pools.
func BenchmarkLearnSeqPyrim(b *testing.B) {
	ds := datasets.PyrimidinesSized(84, 76, 1)
	folds, err := xval.KFold(ds.Pos, ds.Neg, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget}
	learn := func() {
		ex := search.NewExamples(folds[0].TrainPos, folds[0].TrainNeg)
		if _, err := Learn(ds.KB, ex, ds.Modes, cfg); err != nil {
			b.Fatal(err)
		}
	}
	learn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learn()
	}
}
