package datasets

import (
	"repro/internal/bottom"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
)

// TrainsSized generates n random trains labelled by Michalski's classic
// east/west regularity (a train is eastbound iff it carries a short closed
// car), split roughly evenly between classes. This is the generator-style
// trains workload used by Matsui et al. — the related-work system the
// paper discusses in §6 — and makes the toy task scalable for parallel
// experiments. Noise-free: the labels follow the rule exactly.
func TrainsSized(n int, seed int64) *Dataset {
	return trainsGen(n, seed, 0)
}

// TrainsSkewed is TrainsSized with deliberately imbalanced example costs:
// a `skew` fraction of the trains are "heavy" — 12–17 cars instead of 1–4 —
// so saturating or testing coverage on them costs several times the
// inferences of a light train. A static random partition then hands some
// workers far more work than others (the straggler situation elastic
// scheduling exists for), which is what makes this the workload for the
// balance ablation and the PERF.md makespan comparison.
//
// The target concept is also widened from the classic single rule to four
// independent causes (short closed car; bucket car with a hexagon load;
// three-wheeled u-shaped car; a triple triangle load), so covering needs
// several epochs — and the between-epoch rebalance barriers actually run.
func TrainsSkewed(n int, seed int64, skew float64) *Dataset {
	return trainsGen(n, seed, skew)
}

func trainsGen(n int, seed int64, skew float64) *Dataset {
	base := Trains() // reuse the closed/1, open_car/1 background rules and modes
	kb := solve.NewKB()
	if err := kb.AddSource(`
		closed(C) :- roof(C, flat).
		closed(C) :- roof(C, peaked).
		closed(C) :- roof(C, jagged).
		open_car(C) :- roof(C, none).
	`); err != nil {
		panic(err)
	}

	r := newRng(seed ^ 0x7841195)
	lens := []string{"short", "long"}
	roofs := []string{"none", "flat", "peaked", "jagged"}
	shapes := []string{"rectangle", "u_shaped", "bucket"}
	loads := []string{"circle", "triangle", "rectangle", "hexagon"}

	nPos := n / 2
	nNeg := n - nPos
	safeLoads := []string{"circle", "rectangle", "hexagon"}
	var facts factBatch
	exampleF := facts.atom("eastbound")
	gen := func(facts *factBatch) (logic.Term, bool) {
		id := r.Intn(1 << 30)
		train := facts.numbered("t", id)
		nCars := 1 + r.Intn(4)
		// A heavy train carries 12–17 cars, exactly one of which satisfies
		// a cause; every rule for the *other* causes must enumerate the
		// whole train to fail, so the example costs many times a light
		// train's inferences — the deliberate cost imbalance the elastic
		// scheduler's cost-aware deal exists to even out.
		heavy := skew > 0 && r.bool(skew)
		causeCar := 0
		if heavy {
			nCars = 12 + r.Intn(6)
			causeCar = 1 + r.Intn(nCars)
		}
		east := false
		for c := 1; c <= nCars; c++ {
			length := lens[r.Intn(2)]
			roof := roofs[r.Intn(4)]
			shape := shapes[r.Intn(3)]
			nWheels := 2 + r.Intn(2)
			loadShape := loads[r.Intn(4)]
			loadCount := r.Intn(4)
			if heavy {
				// Filler cars are "safe" (satisfy no cause); the one cause
				// car is a classic short closed car.
				length, shape, loadShape = "long", "rectangle", safeLoads[r.Intn(3)]
				if c == causeCar {
					length, roof = "short", roofs[1+r.Intn(3)]
				}
			}
			if length == "short" && roof != "none" {
				east = true
			}
			if skew > 0 {
				// The skewed workload's disjunctive concept: any of three
				// further car regularities also makes the train eastbound,
				// so the theory needs several rules (and the run several
				// epochs, which is when rebalancing happens).
				if shape == "bucket" && loadShape == "hexagon" ||
					nWheels == 3 && shape == "u_shaped" ||
					loadShape == "triangle" && loadCount == 3 {
					east = true
				}
			}
			addCar(facts, train, facts.suffixed(train, "_c", c), trainCar{length, roof, shape, nWheels, loadShape, loadCount})
		}
		return facts.example(exampleF, train), east
	}

	dsName := "trains-gen"
	concept := base.TrueConcept
	if skew > 0 {
		dsName = "trains-skew"
		concept = []logic.Clause{
			logic.MustParseClause("eastbound(T) :- has_car(T, C), car_len(C, short), closed(C)."),
			logic.MustParseClause("eastbound(T) :- has_car(T, C), car_shape(C, bucket), load(C, hexagon, N)."),
			logic.MustParseClause("eastbound(T) :- has_car(T, C), wheels(C, 3), car_shape(C, u_shaped)."),
			logic.MustParseClause("eastbound(T) :- has_car(T, C), load(C, triangle, 3)."),
		}
	}
	pos, neg := fill(r, kb, &facts, nPos, nNeg, 0, gen)
	return &Dataset{
		Name:  dsName,
		KB:    kb,
		Pos:   pos,
		Neg:   neg,
		Noise: 0,
		Modes: base.Modes,
		Search: search.Settings{
			MaxClauseLen: 3,
			NodesLimit:   500,
			MinPos:       2,
			MinPrec:      0.99,
		},
		Bottom:      bottom.Options{VarDepth: 2, MaxLiterals: 80, MaxRecall: 10},
		Budget:      solve.Budget{MaxDepth: 16, MaxInferences: 1 << 14},
		TrueConcept: concept,
	}
}
