package datasets

import (
	"math"
	"runtime"
	"strconv"
	"testing"
)

// TestDecimalTextMatchesAppendFloat pins factBatch's decimal cache to the
// formatting it replaces: for every value the generators draw (carcinogenesis
// charges on a 0.05 grid at two digits, mesh lengths on a 0.5 grid at one),
// plus half-way cases that round to even and both zeros, the cached text is
// strconv.AppendFloat(v, 'f', prec, 64) and the cached value is what that
// text parses back to, on the first lookup and on a repeated one; -0.0 and
// 0.0 are distinct entries.
func TestDecimalTextMatchesAppendFloat(t *testing.T) {
	type dec struct {
		v    float64
		prec int
	}
	var cases []dec
	for k := 0; k < 33; k++ {
		cases = append(cases, dec{float64(k-16) * 0.05, 2})
	}
	for k := 0; k < 40; k++ {
		cases = append(cases, dec{float64(1+k) * 0.5, 1})
	}
	negZero := math.Copysign(0, -1)
	for _, p := range []int{0, 1, 2} {
		cases = append(cases, dec{0, p}, dec{negZero, p})
	}
	cases = append(cases,
		dec{0.125, 2}, dec{0.375, 2}, dec{-0.125, 2}, dec{0.5, 0}, dec{1.5, 0}, dec{2.5, 0},
		dec{-2.5, 0}, dec{0.05, 1}, dec{0.15, 1}, dec{0.25, 1}, dec{1e21, 2}, dec{-0.005, 2})
	var b factBatch
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			want := string(strconv.AppendFloat(nil, c.v, 'f', c.prec, 64))
			wantVal, _ := strconv.ParseFloat(want, 64)
			d := b.decimal(c.v, int8(c.prec))
			if got := string(b.decText[d.from:d.to]); got != want {
				t.Errorf("decimal(%v, %d) = %q, want %q", c.v, c.prec, got, want)
			}
			if math.Float64bits(d.val) != math.Float64bits(wantVal) {
				t.Errorf("decimal(%v, %d) reads back as %v, want %v", c.v, c.prec, d.val, wantVal)
			}
		}
		if round == 0 {
			continue
		}
		// The second round must only have hit the cache.
		if len(b.decimals) != len(b.decs) || len(b.decs) > len(cases) {
			t.Errorf("%d decimals cached for %d lookups of %d cases", len(b.decimals), 2*len(cases), len(cases))
		}
	}
	pos, neg := b.decimal(0, 2), b.decimal(negZero, 2)
	if pos == neg {
		t.Errorf("0.0 and -0.0 share the cache entry %q", b.decText[pos.from:pos.to])
	}
}

// TestGenerateAllocBudget pins what generating each paper dataset at its
// benchmark size allocates once its symbols are interned (the state of every
// set-up after a process's first): a generator that builds its facts, names
// or sort keys piece by piece again, or grows predicate storage fact by
// fact, fails here before a profile shows it. The ceilings are the measured
// counts plus about half again, and the measured bytes plus a quarter (the
// bytes are not checked under -race, see raceEnabled).
func TestGenerateAllocBudget(t *testing.T) {
	// Measured: 354 allocations and 2.53 MB (7 557 and 3.96 MB when every
	// fact was built from its own pieces), 343 and 1.06 MB (7 092,
	// 1.53 MB), 511 and 0.71 MB (1 133, 0.76 MB).
	budgets := map[string]struct {
		allocs float64
		bytes  uint64
	}{
		"carcinogenesis": {550, 3_200_000},
		"mesh":           {520, 1_350_000},
		"pyrimidines":    {770, 900_000},
	}
	for _, g := range benchSizes {
		budget := budgets[g.name]
		g.gen()
		allocs := testing.AllocsPerRun(3, func() { g.gen() })
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			g.gen()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocations, %d bytes a dataset", g.name, allocs, bytes)
		if allocs > budget.allocs {
			t.Errorf("%s: %.0f allocations a dataset, budget %.0f", g.name, allocs, budget.allocs)
		}
		if bytes > budget.bytes && !raceEnabled {
			t.Errorf("%s: %d bytes a dataset, budget %d", g.name, bytes, budget.bytes)
		}
	}
}
