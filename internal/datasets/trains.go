package datasets

import (
	"fmt"

	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// Trains returns a ten-train eastbound/westbound task in the spirit of
// Michalski's classic challenge (the dataset Matsui et al., discussed in
// the paper's related work, evaluated on). Five eastbound (positive) and
// five westbound (negative) trains; the intended theory is the classic
// one: a train is eastbound iff it has a short closed car.
//
// The exact original car descriptions are not reproduced verbatim; the
// encoding (has_car/2, car attributes, closed/1 derived from roof shape)
// and the target regularity follow the standard Progol/Aleph formulation.
// Noise-free and tiny: this is the quickstart dataset.
func Trains() *Dataset {
	kb := solve.NewKB()
	if err := kb.AddSource(`
		closed(C) :- roof(C, flat).
		closed(C) :- roof(C, peaked).
		closed(C) :- roof(C, jagged).
		open_car(C) :- roof(C, none).
	`); err != nil {
		panic(err)
	}

	type car struct {
		len    string // short | long
		roof   string // none | flat | peaked | jagged
		shape  string // rectangle | u_shaped | bucket
		wheels int
		load   string // circle | triangle | rectangle | hexagon
		nload  int
	}
	trains := []struct {
		name string
		east bool
		cars []car
	}{
		{"east1", true, []car{
			{"long", "none", "rectangle", 2, "rectangle", 3},
			{"short", "peaked", "rectangle", 2, "triangle", 1},
			{"long", "none", "rectangle", 3, "hexagon", 1},
		}},
		{"east2", true, []car{
			{"short", "flat", "bucket", 2, "circle", 1},
			{"long", "none", "u_shaped", 2, "triangle", 2},
		}},
		{"east3", true, []car{
			{"short", "none", "u_shaped", 2, "circle", 1},
			{"short", "jagged", "rectangle", 2, "triangle", 1},
			{"long", "none", "rectangle", 2, "rectangle", 2},
		}},
		{"east4", true, []car{
			{"short", "peaked", "u_shaped", 2, "triangle", 1},
			{"short", "none", "rectangle", 2, "rectangle", 1},
		}},
		{"east5", true, []car{
			{"long", "flat", "rectangle", 3, "circle", 2},
			{"short", "flat", "rectangle", 2, "hexagon", 1},
		}},
		{"west1", false, []car{
			{"long", "none", "rectangle", 2, "circle", 3},
			{"long", "flat", "rectangle", 3, "triangle", 1},
		}},
		{"west2", false, []car{
			{"short", "none", "u_shaped", 2, "circle", 1},
			{"long", "none", "rectangle", 2, "rectangle", 1},
		}},
		{"west3", false, []car{
			{"long", "jagged", "rectangle", 3, "hexagon", 1},
			{"short", "none", "bucket", 2, "circle", 1},
		}},
		{"west4", false, []car{
			{"long", "peaked", "rectangle", 2, "rectangle", 2},
			{"short", "none", "rectangle", 2, "triangle", 1},
			{"long", "none", "u_shaped", 2, "circle", 1},
		}},
		{"west5", false, []car{
			{"short", "none", "rectangle", 2, "rectangle", 1},
		}},
	}

	var pos, neg []logic.Term
	var facts []string
	for _, t := range trains {
		for i, c := range t.cars {
			carName := fmt.Sprintf("%s_c%d", t.name, i+1)
			facts = append(facts,
				fmt.Sprintf("has_car(%s, %s)", t.name, carName),
				fmt.Sprintf("car_len(%s, %s)", carName, c.len),
				fmt.Sprintf("roof(%s, %s)", carName, c.roof),
				fmt.Sprintf("car_shape(%s, %s)", carName, c.shape),
				fmt.Sprintf("wheels(%s, %d)", carName, c.wheels),
				fmt.Sprintf("load(%s, %s, %d)", carName, c.load, c.nload),
			)
		}
		e := logic.MustParseTerm(fmt.Sprintf("eastbound(%s)", t.name))
		if t.east {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	if err := sortedFacts(kb, facts); err != nil {
		panic(err)
	}

	return &Dataset{
		Name:  "trains",
		KB:    kb,
		Pos:   pos,
		Neg:   neg,
		Noise: 0,
		Modes: mode.MustParseSet(`
			modeh(1, eastbound(+train)).
			modeb('*', has_car(+train, -car)).
			modeb(1, car_len(+car, #carlen)).
			modeb(1, roof(+car, #rooftype)).
			modeb(1, car_shape(+car, #carshape)).
			modeb(1, wheels(+car, #wcount)).
			modeb(1, load(+car, #loadshape, #loadcount)).
			modeb(1, closed(+car)).
			modeb(1, open_car(+car)).
		`),
		Search: search.Settings{
			MaxClauseLen: 3,
			NodesLimit:   500,
			MinPos:       2,
			MinPrec:      0.99,
		},
		Bottom: bottom.Options{VarDepth: 2, MaxLiterals: 60, MaxRecall: 10},
		Budget: solve.Budget{MaxDepth: 16, MaxInferences: 1 << 14},
		TrueConcept: []logic.Clause{
			logic.MustParseClause("eastbound(T) :- has_car(T, C), car_len(C, short), closed(C)."),
		},
	}
}
