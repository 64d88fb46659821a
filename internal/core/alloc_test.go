package core

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/xval"
)

// TestLearnAllocBudget pins the bytes one Learn call allocates on a small
// fixed sim task (carcinogenesis 24+/20−, p = 4, W = 10: its stage and
// evaluate frames cross wire.CompressMin, as the bench's do). The search,
// the bottom clauses and the decoded messages are what is left; building
// codec state per frame, as every Seal did before the envelope was pooled,
// costs ~0.8 MB a frame and multiplies this several times over — so the next
// per-frame megabyte fails here instead of waiting for a profile.
func TestLearnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ds := datasets.CarcinogenesisSized(24, 20, 1)
	cfg := Config{
		Workers: 4, Width: 10, Seed: 1,
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
	}
	learn := func() {
		if _, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, cfg); err != nil {
			t.Fatal(err)
		}
	}
	learn() // lazy KB compilation and the pools' first fill are not steady state
	const calls = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		learn()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("core.Learn allocates %d bytes per call", perCall)
	// Measured 2.9–3.2 MB (5.6–5.9 MB before the rule search pooled its
	// scratch, 33.8 MB with a flate.Writer per frame); the headroom, about
	// twice the measurement as before, also covers a collection emptying
	// the pools mid-call.
	const budget = 6 << 20
	if perCall > budget {
		t.Fatalf("core.Learn allocates %d bytes per call, budget %d", perCall, budget)
	}
}

// BenchmarkLearnP2Carcino is one p2-sim-carcino learn as the benchmark
// builds it: carcinogenesis at full size (162+/136−, data seed 1), the
// training half of 5-fold split 0 (split seed 1), p = 4, W = 10, partition
// seed 8. With -benchmem its B/op is the bytes one learn allocates:
//
//	go test -run '^$' -bench LearnP2 -benchmem ./internal/core
func BenchmarkLearnP2Carcino(b *testing.B) {
	ds := datasets.CarcinogenesisSized(162, 136, 1)
	folds, err := xval.KFold(ds.Pos, ds.Neg, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Workers: 4, Width: 10, Seed: 8,
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
		Cost: cluster.DefaultCostModel,
	}
	learn := func() {
		if _, err := Learn(ds.KB, folds[0].TrainPos, folds[0].TrainNeg, ds.Modes, cfg); err != nil {
			b.Fatal(err)
		}
	}
	learn() // lazy KB compilation and the pools' first fill
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learn()
	}
}
