package datasets

import (
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

	trains := []struct {
		name string
		east bool
		cars []trainCar
	}{
		{"east1", true, []trainCar{
			{"long", "none", "rectangle", 2, "rectangle", 3},
			{"short", "peaked", "rectangle", 2, "triangle", 1},
			{"long", "none", "rectangle", 3, "hexagon", 1},
		}},
		{"east2", true, []trainCar{
			{"short", "flat", "bucket", 2, "circle", 1},
			{"long", "none", "u_shaped", 2, "triangle", 2},
		}},
		{"east3", true, []trainCar{
			{"short", "none", "u_shaped", 2, "circle", 1},
			{"short", "jagged", "rectangle", 2, "triangle", 1},
			{"long", "none", "rectangle", 2, "rectangle", 2},
		}},
		{"east4", true, []trainCar{
			{"short", "peaked", "u_shaped", 2, "triangle", 1},
			{"short", "none", "rectangle", 2, "rectangle", 1},
		}},
		{"east5", true, []trainCar{
			{"long", "flat", "rectangle", 3, "circle", 2},
			{"short", "flat", "rectangle", 2, "hexagon", 1},
		}},
		{"west1", false, []trainCar{
			{"long", "none", "rectangle", 2, "circle", 3},
			{"long", "flat", "rectangle", 3, "triangle", 1},
		}},
		{"west2", false, []trainCar{
			{"short", "none", "u_shaped", 2, "circle", 1},
			{"long", "none", "rectangle", 2, "rectangle", 1},
		}},
		{"west3", false, []trainCar{
			{"long", "jagged", "rectangle", 3, "hexagon", 1},
			{"short", "none", "bucket", 2, "circle", 1},
		}},
		{"west4", false, []trainCar{
			{"long", "peaked", "rectangle", 2, "rectangle", 2},
			{"short", "none", "rectangle", 2, "triangle", 1},
			{"long", "none", "u_shaped", 2, "circle", 1},
		}},
		{"west5", false, []trainCar{
			{"short", "none", "rectangle", 2, "rectangle", 1},
		}},
	}

	var pos, neg []logic.Term
	var facts factBatch
	for _, t := range trains {
		train := facts.atom(t.name)
		for i, c := range t.cars {
			addCar(&facts, train, facts.suffixed(train, "_c", i+1), c)
		}
		e := logic.Comp("eastbound", facts.term(train))
		if t.east {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	facts.addTo(kb)

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

// trainCar is one car of a train.
type trainCar struct {
	len    string // short | long
	roof   string // none | flat | peaked | jagged
	shape  string // rectangle | u_shaped | bucket
	wheels int
	load   string // circle | triangle | rectangle | hexagon
	nload  int
}

// addCar describes the six facts of train's car c, named name. It enters
// the functors and c's attribute names afresh for each car, so each costs
// one symbol lookup per car; the trains sets are small enough not to keep
// them as vocabulary.
func addCar(facts *factBatch, train, name factArg, c trainCar) {
	facts.add(facts.atom("has_car"), train, name)
	facts.add(facts.atom("car_len"), name, facts.atom(c.len))
	facts.add(facts.atom("roof"), name, facts.atom(c.roof))
	facts.add(facts.atom("car_shape"), name, facts.atom(c.shape))
	facts.add(facts.atom("wheels"), name, intArg(c.wheels))
	facts.add(facts.atom("load"), name, facts.atom(c.load), intArg(c.nload))
}
