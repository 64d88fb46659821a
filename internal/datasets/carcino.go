package datasets

import (
	"fmt"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// Carcinogenesis returns the carcinogenesis-style task at paper size
// (Table 1: 162 positive, 136 negative).
//
// Like the original (Srinivasan et al. 1997), each example is a molecule
// described as a typed attribute graph: atm/5 facts (molecule, atom,
// element, atom type, partial charge) and bond/4 facts (molecule, two
// atoms, bond type), with numeric charge thresholds available through
// background rules. The hidden concept is a disjunction of two structural
// alerts — a strongly negative nitrogen, or a chlorine on an aromatic
// bond — under heavy label noise, mirroring the original task's difficulty
// (the paper's predictive accuracy on it is only ~60%).
func Carcinogenesis(seed int64) *Dataset { return CarcinogenesisSized(162, 136, seed) }

// CarcinogenesisSized generates the task with custom example counts.
func CarcinogenesisSized(nPos, nNeg int, seed int64) *Dataset {
	const noise = 0.30
	r := newRng(seed ^ 0xCA5C1)
	kb := solve.NewKB()
	if err := kb.AddSource(`
		charge_t(-0.6). charge_t(-0.4). charge_t(-0.2). charge_t(0.0). charge_t(0.2).
		lteq_chg(C, T) :- charge_t(T), C =< T.
		gteq_chg(C, T) :- charge_t(T), C >= T.
	`); err != nil {
		panic(err)
	}

	elements := []string{"c", "c", "c", "c", "c", "n", "o", "s", "cl"}
	atomTypes := []string{"1", "3", "8", "10", "14", "22", "27", "29"}
	bondWeights := []float64{0.60, 0.25, 0.15} // single, double, aromatic
	bondNames := []string{"1", "2", "7"}

	molID := 0
	gen := func() (logic.Term, bool, func()) {
		molID++
		mol := fmt.Sprintf("d%d", molID)
		nAtoms := 8 + r.intn(8)
		elems := make([]string, nAtoms)
		charges := make([]float64, nAtoms)
		var facts []string
		for i := 0; i < nAtoms; i++ {
			elems[i] = r.pick(elements)
			// Charges on a 0.05 grid in [-0.8, 0.8].
			charges[i] = float64(r.intn(33)-16) * 0.05
			facts = append(facts, fmt.Sprintf("atm(%s, %s_a%d, %s, %s, %.2f)",
				mol, mol, i, elems[i], atomTypes[r.intn(len(atomTypes))], charges[i]))
		}
		type edge struct{ a, b, t int }
		var edges []edge
		for i := 1; i < nAtoms; i++ {
			edges = append(edges, edge{i - 1, i, r.weighted(bondWeights)})
		}
		for k := 0; k < nAtoms/3; k++ {
			a, b := r.intn(nAtoms), r.intn(nAtoms)
			if a != b {
				edges = append(edges, edge{a, b, r.weighted(bondWeights)})
			}
		}
		for _, e := range edges {
			facts = append(facts, fmt.Sprintf("bond(%s, %s_a%d, %s_a%d, %s)",
				mol, mol, e.a, mol, e.b, bondNames[e.t]))
		}
		// Hidden concept: nitro-like nitrogen OR aromatic chlorine.
		label := false
		for i := 0; i < nAtoms; i++ {
			if elems[i] == "n" && charges[i] <= -0.4 {
				label = true
			}
		}
		for _, e := range edges {
			if bondNames[e.t] == "7" && (elems[e.a] == "cl" || elems[e.b] == "cl") {
				label = true
			}
		}
		example := logic.MustParseTerm(fmt.Sprintf("active(%s)", mol))
		commit := func() {
			if err := sortedFacts(kb, facts); err != nil {
				panic(err)
			}
		}
		return example, label, commit
	}

	pos, neg := fill(r, nPos, nNeg, noise, gen)
	return &Dataset{
		Name:  "carcinogenesis",
		KB:    kb,
		Pos:   pos,
		Neg:   neg,
		Noise: noise,
		Modes: mode.MustParseSet(`
			modeh(1, active(+drug)).
			modeb('*', atm(+drug, -atomid, #element, #atype, -charge)).
			modeb('*', bond(+drug, -atomid, -atomid, #btype)).
			modeb('*', lteq_chg(+charge, #cthresh)).
			modeb('*', gteq_chg(+charge, #cthresh)).
		`),
		Search: search.Settings{
			MaxClauseLen: 3,
			NodesLimit:   600,
			MinPos:       3,
			// The positive base rate is ~54% and the true structural
			// alerts reach ~0.72 precision under the 30% label noise;
			// 0.68 keeps the empty rule and near-random rules out of the
			// good set while accepting the alerts.
			MinPrec: 0.68,
		},
		Bottom: bottom.Options{VarDepth: 2, MaxLiterals: 90, MaxRecall: 30},
		Budget: solve.Budget{MaxDepth: 24, MaxInferences: 1 << 16},
		TrueConcept: []logic.Clause{
			logic.MustParseClause("active(D) :- atm(D, A, n, T, C), lteq_chg(C, -0.4)."),
			logic.MustParseClause("active(D) :- bond(D, A, B, 7), atm(D, B, cl, T, C)."),
		},
	}
}
