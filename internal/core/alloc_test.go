package core

import (
	"runtime"
	"testing"

	"repro/internal/datasets"
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
	// Measured 4.7–5.0 MB (33.8 MB with a flate.Writer per frame); the
	// headroom also covers a collection emptying the pools mid-call.
	const budget = 10 << 20
	if perCall > budget {
		t.Fatalf("core.Learn allocates %d bytes per call, budget %d", perCall, budget)
	}
}
