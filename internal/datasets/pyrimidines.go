package datasets

import (
	"fmt"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// Pyrimidines returns the drug-activity-style task at paper size
// (Table 1: 848 positive, 764 negative).
//
// Like the original QSAR task (King et al. 1992), each example is a drug
// whose three substituent positions carry chemical groups, and the groups'
// properties live in a shared background table (polarity, size,
// flexibility, hydrogen-donor capability) reachable only through a join on
// the group — the canonical multi-relational setup. The hidden concept is
// a two-rule disjunction over thresholded group properties at specific
// positions, with moderate label noise (paper accuracy ≈ 76%).
func Pyrimidines(seed int64) *Dataset { return PyrimidinesSized(848, 764, seed) }

// PyrimidinesSized generates the task with custom example counts at the
// calibrated default noise.
func PyrimidinesSized(nPos, nNeg int, seed int64) *Dataset {
	return PyrimidinesNoisy(nPos, nNeg, 0.18, seed)
}

// PyrimidinesNoisy generates the task with a custom label-noise rate,
// used by the noise-sensitivity ablation (how far does the paper's
// "quality of learning is preserved" claim stretch as the task hardens?).
func PyrimidinesNoisy(nPos, nNeg int, noise float64, seed int64) *Dataset {
	const nGroups = 24
	r := newRng(seed ^ 0x97121D)
	kb := solve.NewKB()
	if err := kb.AddSource(`
		level(0). level(1). level(2). level(3). level(4). level(5).
		polar_gte(G, L) :- polar(G, V), level(L), V >= L.
		polar_lte(G, L) :- polar(G, V), level(L), V =< L.
		size_gte(G, L) :- gsize(G, V), level(L), V >= L.
		size_lte(G, L) :- gsize(G, V), level(L), V =< L.
		flex_gte(G, L) :- flex(G, V), level(L), V >= L.
		flex_lte(G, L) :- flex(G, V), level(L), V =< L.
	`); err != nil {
		panic(err)
	}

	// Shared group-property table.
	polar := make([]int, nGroups)
	gsize := make([]int, nGroups)
	flex := make([]int, nGroups)
	hdon := make([]bool, nGroups)
	var tableFacts []string
	for g := 0; g < nGroups; g++ {
		polar[g] = r.intn(6)
		gsize[g] = r.intn(6)
		flex[g] = r.intn(4)
		hdon[g] = r.bool(0.4)
		name := fmt.Sprintf("g%d", g)
		tableFacts = append(tableFacts,
			fmt.Sprintf("polar(%s, %d)", name, polar[g]),
			fmt.Sprintf("gsize(%s, %d)", name, gsize[g]),
			fmt.Sprintf("flex(%s, %d)", name, flex[g]),
		)
		if hdon[g] {
			tableFacts = append(tableFacts, fmt.Sprintf("hdonor(%s)", name))
		}
	}
	if err := sortedFacts(kb, tableFacts); err != nil {
		panic(err)
	}

	drugID := 0
	gen := func() (logic.Term, bool, func()) {
		drugID++
		drug := fmt.Sprintf("d%d", drugID)
		groups := [3]int{r.intn(nGroups), r.intn(nGroups), r.intn(nGroups)}
		facts := []string{
			fmt.Sprintf("subst(%s, p1, g%d)", drug, groups[0]),
			fmt.Sprintf("subst(%s, p2, g%d)", drug, groups[1]),
			fmt.Sprintf("subst(%s, p3, g%d)", drug, groups[2]),
		}
		// Hidden concept: a polar-but-small group at position 3, or a
		// flexible hydrogen donor at position 1.
		g3, g1 := groups[2], groups[0]
		label := (polar[g3] >= 3 && gsize[g3] <= 2) || (hdon[g1] && flex[g1] >= 2)
		example := logic.MustParseTerm(fmt.Sprintf("active(%s)", drug))
		commit := func() {
			if err := sortedFacts(kb, facts); err != nil {
				panic(err)
			}
		}
		return example, label, commit
	}

	pos, neg := fill(r, nPos, nNeg, noise, gen)
	return &Dataset{
		Name:  "pyrimidines",
		KB:    kb,
		Pos:   pos,
		Neg:   neg,
		Noise: noise,
		Modes: mode.MustParseSet(`
			modeh(1, active(+drug)).
			modeb('*', subst(+drug, #position, -group)).
			modeb('*', polar_gte(+group, #level)).
			modeb('*', polar_lte(+group, #level)).
			modeb('*', size_gte(+group, #level)).
			modeb('*', size_lte(+group, #level)).
			modeb('*', flex_gte(+group, #level)).
			modeb('*', flex_lte(+group, #level)).
			modeb(1, hdonor(+group)).
		`),
		Search: search.Settings{
			MaxClauseLen: 3,
			NodesLimit:   800,
			MinPos:       3,
			MinPrec:      0.65,
		},
		Bottom: bottom.Options{VarDepth: 2, MaxLiterals: 100, MaxRecall: 24},
		Budget: solve.Budget{MaxDepth: 16, MaxInferences: 1 << 14},
		TrueConcept: []logic.Clause{
			logic.MustParseClause("active(D) :- subst(D, p3, G), polar_gte(G, 3), size_lte(G, 2)."),
			logic.MustParseClause("active(D) :- subst(D, p1, G), hdonor(G), flex_gte(G, 2)."),
		},
	}
}
