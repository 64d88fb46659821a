package datasets

import (
	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// Mesh returns the finite-element mesh-design-style task at paper size
// (Table 1: 2840 positive, 278 negative).
//
// Like the original (Dolšak & Bratko), each example is one edge of a
// structure to be meshed, described by geometric and boundary-condition
// attributes: edge type, support, loading, plus a continuous length with
// threshold comparators. The target is whether the edge needs a fine mesh;
// the hidden concept is a three-way disjunction over type, loading and
// support. Class balance is heavily positive, as in Table 1.
func Mesh(seed int64) *Dataset { return MeshSized(2840, 278, seed) }

// MeshSized generates the task with custom example counts.
func MeshSized(nPos, nNeg int, seed int64) *Dataset {
	const noise = 0.10
	r := newRng(seed ^ 0x3E5B)
	kb := solve.NewKB()
	if err := kb.AddSource(`
		len_t(2.0). len_t(4.0). len_t(8.0). len_t(16.0).
		len_gteq(L, T) :- len_t(T), L >= T.
		len_lteq(L, T) :- len_t(T), L =< T.
	`); err != nil {
		panic(err)
	}

	types := []string{"long", "short", "circuit", "half_circuit", "quarter_circuit", "not_important"}
	typeW := []float64{0.30, 0.22, 0.12, 0.10, 0.10, 0.16}
	supports := []string{"fixed", "free", "one_side_fixed", "two_side_fixed"}
	supportW := []float64{0.35, 0.25, 0.22, 0.18}
	loads := []string{"noload", "cont_loaded", "point_loaded"}
	loadW := []float64{0.35, 0.40, 0.25}

	var facts factBatch
	exampleF := facts.atom("fine_mesh")
	etypeF, supportF, loadingF, elenF := facts.atom("etype"), facts.atom("support"), facts.atom("loading"), facts.atom("elen")
	typeArgs, supportArgs, loadArgs := facts.atoms(types...), facts.atoms(supports...), facts.atoms(loads...)
	edgeID := 0
	gen := func(facts *factBatch) (logic.Term, bool) {
		edgeID++
		edge := facts.numbered("e", edgeID)
		etype := r.weighted(typeW)
		support := r.weighted(supportW)
		load := r.weighted(loadW)
		length := float64(1+r.Intn(40)) * 0.5 // 0.5 .. 20.0
		facts.add(etypeF, edge, typeArgs[etype])
		facts.add(supportF, edge, supportArgs[support])
		facts.add(loadingF, edge, loadArgs[load])
		facts.add(elenF, edge, decimalArg(length, 1))
		// Hidden concept: fine mesh needed for continuously loaded long
		// edges, point-loaded fixed edges, and full circuits.
		label := (types[etype] == "long" && loads[load] == "cont_loaded") ||
			(supports[support] == "fixed" && loads[load] == "point_loaded") ||
			types[etype] == "circuit"
		return facts.example(exampleF, edge), label
	}

	pos, neg := fill(r, kb, &facts, nPos, nNeg, noise, gen)
	return &Dataset{
		Name:  "mesh",
		KB:    kb,
		Pos:   pos,
		Neg:   neg,
		Noise: noise,
		Modes: mode.MustParseSet(`
			modeh(1, fine_mesh(+edge)).
			modeb(1, etype(+edge, #etype)).
			modeb(1, support(+edge, #sup)).
			modeb(1, loading(+edge, #load)).
			modeb(1, elen(+edge, -elength)).
			modeb('*', len_gteq(+elength, #lthresh)).
			modeb('*', len_lteq(+elength, #lthresh)).
		`),
		Search: search.Settings{
			MaxClauseLen: 3,
			NodesLimit:   400,
			MinPos:       2,
			// The class balance is ~91% positive, so the acceptance
			// precision must sit above the base rate (an empty rule has
			// ~0.91 precision) and below the ~0.99 of the true rules.
			MinPrec: 0.93,
		},
		Bottom: bottom.Options{VarDepth: 2, MaxLiterals: 40, MaxRecall: 20},
		Budget: solve.Budget{MaxDepth: 16, MaxInferences: 1 << 14},
		TrueConcept: []logic.Clause{
			logic.MustParseClause("fine_mesh(E) :- etype(E, long), loading(E, cont_loaded)."),
			logic.MustParseClause("fine_mesh(E) :- support(E, fixed), loading(E, point_loaded)."),
			logic.MustParseClause("fine_mesh(E) :- etype(E, circuit)."),
		},
	}
}
