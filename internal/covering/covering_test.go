package covering

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// Task: mol is active iff it has an oxygen atom OR a heavy atom (weight>30).
// Two distinct rules are needed to cover all positives.
func buildTask(t *testing.T) (*solve.KB, *search.Examples, *mode.Set) {
	t.Helper()
	kb := solve.NewKB()
	var pos, neg []logic.Term
	add := func(id int, elements []string, weights []int, isPos bool) {
		mol := fmt.Sprintf("m%d", id)
		for i, el := range elements {
			atom := fmt.Sprintf("%s_a%d", mol, i)
			kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(%s, %s, %s)", mol, atom, el)))
			kb.AddFact(logic.MustParseTerm(fmt.Sprintf("wt(%s, %d)", atom, weights[i])))
		}
		e := logic.MustParseTerm(fmt.Sprintf("active(%s)", mol))
		if isPos {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	// Positives: oxygen-bearing.
	add(1, []string{"carbon", "oxygen"}, []int{12, 16}, true)
	add(2, []string{"oxygen"}, []int{16}, true)
	add(3, []string{"nitrogen", "oxygen"}, []int{14, 16}, true)
	// Positives: heavy atom.
	add(4, []string{"sulfur"}, []int{32}, true)
	add(5, []string{"chlorine", "carbon"}, []int{35, 12}, true)
	// Negatives: light, no oxygen.
	add(6, []string{"carbon", "carbon"}, []int{12, 12}, false)
	add(7, []string{"nitrogen"}, []int{14}, false)
	add(8, []string{"carbon", "nitrogen"}, []int{12, 14}, false)
	ms := mode.MustParseSet(`
		modeh(1, active(+mol)).
		modeb('*', atm(+mol, -atomid, #element)).
		modeb(1, wt(+atomid, -weight)).
		modeb(1, '>='(+weight, #weight)).
	`)
	return kb, search.NewExamples(pos, neg), ms
}

func TestLearnCoversAllPositives(t *testing.T) {
	kb, ex, ms := buildTask(t)
	// Provide threshold facts the >= mode can compare against: none needed,
	// the mode uses #weight constants from solutions... use wt directly.
	res, err := Learn(kb, ex, ms, Config{
		Search: search.Settings{MaxClauseLen: 3, MinPrec: 0.85},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumPosAlive() != 0 {
		t.Fatalf("covering left %d positives uncovered", ex.NumPosAlive())
	}
	if len(res.Theory) == 0 {
		t.Fatal("empty theory")
	}
	if res.Searches == 0 || res.GeneratedRules == 0 || res.Inferences == 0 {
		t.Fatalf("missing metrics: %+v", res)
	}
	// The theory must separate train data: no negative covered.
	acc := Accuracy(kb, res.Theory, ex.Pos, ex.Neg, solve.Budget{})
	if acc < 0.99 {
		t.Fatalf("training accuracy = %v, want ~1.0 (theory: %v)", acc, theoryStrings(res.Theory))
	}
}

func theoryStrings(theory []logic.Clause) []string {
	out := make([]string, len(theory))
	for i, c := range theory {
		out[i] = c.String()
	}
	return out
}

func TestLearnIsDeterministic(t *testing.T) {
	kb1, ex1, ms1 := buildTask(t)
	kb2, ex2, ms2 := buildTask(t)
	cfg := Config{Search: search.Settings{MaxClauseLen: 3, MinPrec: 0.85}}
	r1, err := Learn(kb1, ex1, ms1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Learn(kb2, ex2, ms2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Theory) != len(r2.Theory) {
		t.Fatalf("theory sizes differ: %d vs %d", len(r1.Theory), len(r2.Theory))
	}
	for i := range r1.Theory {
		if r1.Theory[i].String() != r2.Theory[i].String() {
			t.Fatalf("rule %d differs:\n%s\n%s", i, r1.Theory[i].String(), r2.Theory[i].String())
		}
	}
}

func TestFallbackAdoptsGroundFact(t *testing.T) {
	// A positive example indistinguishable from a negative cannot be
	// generalised at high precision; the loop must adopt it and terminate.
	kb := solve.NewKB()
	kb.AddFact(logic.MustParseTerm("atm(p1, x1, carbon)"))
	kb.AddFact(logic.MustParseTerm("atm(n1, y1, carbon)"))
	ex := search.NewExamples(
		[]logic.Term{logic.MustParseTerm("active(p1)")},
		[]logic.Term{logic.MustParseTerm("active(n1)")},
	)
	ms := mode.MustParseSet(`
		modeh(1, active(+mol)).
		modeb('*', atm(+mol, -atomid, #element)).
	`)
	res, err := Learn(kb, ex, ms, Config{Search: search.Settings{MinPrec: 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroundFactsAdopted != 1 {
		t.Fatalf("GroundFactsAdopted = %d, want 1", res.GroundFactsAdopted)
	}
	if ex.NumPosAlive() != 0 {
		t.Fatal("fallback did not retract the example")
	}
	// The adopted fact is the example itself.
	if res.Theory[len(res.Theory)-1].String() != "active(p1)" {
		t.Fatalf("adopted theory entry: %s", res.Theory[len(res.Theory)-1].String())
	}
}

// TestMaxRulesStopsLoop: a task that needs more than maxRules rules — here
// every positive is adopted as a ground fact, since no rule reaches MinPos —
// stops at maxRules with the rest of the positives still uncovered.
func TestMaxRulesStopsLoop(t *testing.T) {
	const extra = 5
	var pos []logic.Term
	for i := range maxRules + extra {
		pos = append(pos, logic.MustParseTerm(fmt.Sprintf("active(p%d)", i)))
	}
	ex := search.NewExamples(pos, []logic.Term{logic.MustParseTerm("active(n0)")})
	ms := mode.MustParseSet(`
		modeh(1, active(+mol)).
		modeb(1, atm(+mol, -atomid)).
	`)
	res, err := Learn(solve.NewKB(), ex, ms, Config{Search: search.Settings{MinPos: 2 * maxRules}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Theory) != maxRules || ex.NumPosAlive() != extra {
		t.Fatalf("%d rules with %d positives left, want the cap of %d with %d left",
			len(res.Theory), ex.NumPosAlive(), maxRules, extra)
	}
}

func TestAccuracyOnHeldOut(t *testing.T) {
	kb, ex, ms := buildTask(t)
	res, err := Learn(kb, ex, ms, Config{Search: search.Settings{MaxClauseLen: 3, MinPrec: 0.85}})
	if err != nil {
		t.Fatal(err)
	}
	// Held-out molecules: one oxygen positive, one carbon-only negative.
	kb.AddFact(logic.MustParseTerm("atm(h1, h1a, oxygen)"))
	kb.AddFact(logic.MustParseTerm("wt(h1a, 16)"))
	kb.AddFact(logic.MustParseTerm("atm(h2, h2a, carbon)"))
	kb.AddFact(logic.MustParseTerm("wt(h2a, 12)"))
	acc := Accuracy(kb, res.Theory,
		[]logic.Term{logic.MustParseTerm("active(h1)")},
		[]logic.Term{logic.MustParseTerm("active(h2)")},
		solve.Budget{})
	if acc < 0.99 {
		t.Fatalf("held-out accuracy = %v; theory: %s", acc, strings.Join(theoryStrings(res.Theory), "; "))
	}
}

func TestAccuracyEmptySets(t *testing.T) {
	kb := solve.NewKB()
	if got := Accuracy(kb, nil, nil, nil, solve.Budget{}); got != 0 {
		t.Fatalf("Accuracy on empty sets = %v", got)
	}
}
