package solve_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/solve"
)

// checkProof validates structural invariants of a proof tree: rule nodes
// have exactly one child per body literal of the clause they resolved
// against, fact nodes are leaves whose goal re-proves against the KB, and
// every goal that should be ground is.
func checkProof(t *testing.T, kb *solve.KB, n *solve.ProofStep) {
	t.Helper()
	switch n.Kind {
	case solve.ProofFact:
		if len(n.Children) != 0 {
			t.Errorf("fact node %v has %d children", n.Goal, len(n.Children))
		}
		if !n.Goal.IsGround() {
			// A fact node's goal may keep variables the proof never bound,
			// but then it must still be provable as-is.
			t.Logf("fact node %v not ground", n.Goal)
		}
		m := solve.NewMachine(kb, solve.DefaultBudget)
		if !m.ProveAtom(n.Goal) {
			t.Errorf("fact node goal %v does not re-prove", n.Goal)
		}
	case solve.ProofRule:
		if n.Clause == nil {
			t.Fatalf("rule node %v has nil clause", n.Goal)
		}
		if len(n.Children) != len(n.Clause.Body) {
			t.Errorf("rule node %v: %d children for %d body literals",
				n.Goal, len(n.Children), len(n.Clause.Body))
		}
	case solve.ProofNAF:
		if !n.Neg {
			t.Errorf("naf node %v not marked negative", n.Goal)
		}
		if len(n.Children) != 0 {
			t.Errorf("naf node %v has children", n.Goal)
		}
	}
	for _, c := range n.Children {
		checkProof(t, kb, c)
	}
}

// TestProveExampleBacktracking exercises the recorder on a program where
// the first clause choices are wrong and the proof needs builtins, deep
// recursion and negation.
func TestProveExampleBacktracking(t *testing.T) {
	kb := solve.NewKB()
	if err := kb.AddSource(`
		edge(a, b). edge(b, c). edge(c, d). edge(a, x).
		dead(x).
		path(X, Y) :- edge(X, Y), \+ dead(Y).
		path(X, Y) :- edge(X, Z), \+ dead(Z), path(Z, Y).
		len(a, 1). len(b, 2). len(c, 3).
	`); err != nil {
		t.Fatal(err)
	}
	parsed, err := logic.ParseClause("reach(X) :- path(a, X), len(X, N), N > 1.")
	if err != nil {
		t.Fatal(err)
	}
	rule := &parsed
	m := solve.NewMachine(kb, solve.DefaultBudget)
	ex, _ := logic.ParseTerm("reach(c)")
	proof, ok := m.ProveExample(rule, ex)
	if !ok {
		t.Fatal("ProveExample failed on a covered example")
	}
	if !m.CoversExample(rule, ex) {
		t.Fatal("CoversExample disagrees (covered)")
	}
	if proof.Clause == nil || proof.Clause.String() != rule.String() {
		t.Fatalf("root clause = %v, want the rule", proof.Clause)
	}
	if got := proof.Goal.String(); got != "reach(c)" {
		t.Fatalf("root goal = %q", got)
	}
	checkProof(t, kb, proof)

	// Not covered: x is dead, so reach(x) must fail in both provers.
	exX, _ := logic.ParseTerm("reach(x)")
	if _, ok := m.ProveExample(rule, exX); ok {
		t.Fatal("ProveExample proved an uncovered example")
	}
	if m.CoversExample(rule, exX) {
		t.Fatal("CoversExample disagrees (uncovered)")
	}
}

// TestProveExampleAtMaxDepth: a covered example whose proof needs exactly
// MaxDepth levels has a proof — the rule body starts at depth 0 in both
// provers — and ProveExample charges what CoversExample does.
func TestProveExampleAtMaxDepth(t *testing.T) {
	kb := solve.NewKB()
	if err := kb.AddSource(`q(a). r(X) :- q(X).`); err != nil {
		t.Fatal(err)
	}
	ex := logic.MustParseTerm("p(a)")
	for _, c := range []struct {
		rule  string
		depth int
		want  int64
	}{{"p(X) :- q(X).", 1, 2}, {"p(X) :- r(X).", 2, 4}} {
		rule := logic.MustParseClause(c.rule)
		for _, novm := range []bool{false, true} {
			m := solve.NewMachine(kb, solve.Budget{MaxDepth: c.depth})
			m.SetNoVM(novm)
			covered := m.CoversExample(&rule, ex)
			covers := m.TotalInferences()
			proof, ok := m.ProveExample(&rule, ex)
			proves := m.TotalInferences() - covers
			if !covered || !ok || covers != c.want || proves != c.want {
				t.Fatalf("%s at MaxDepth %d, novm=%v: covers %v (%d inferences), proves %v (%d), want true (%d)",
					c.rule, c.depth, novm, covered, covers, ok, proves, c.want)
			}
			checkProof(t, kb, proof)
		}
	}
}

// TestProveExampleAgreesOnDatasets pins recorder/engine agreement across
// every (true-concept rule, example) pair of the bundled paper datasets at
// small scale — the bit-for-bit guarantee the serving layer's proofs rely on.
func TestProveExampleAgreesOnDatasets(t *testing.T) {
	dss, err := datasets.PaperScaled(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range dss {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			m := solve.NewMachine(ds.KB, ds.Budget)
			examples := append(append([]logic.Term{}, ds.Pos...), ds.Neg...)
			checked := 0
			for ri := range ds.TrueConcept {
				rule := &ds.TrueConcept[ri]
				for _, ex := range examples {
					covered := m.CoversExample(rule, ex)
					proof, ok := m.ProveExample(rule, ex)
					if ok != covered {
						t.Fatalf("rule %v example %v: ProveExample=%v CoversExample=%v",
							rule, ex, ok, covered)
					}
					if ok {
						checked++
						if !proof.Goal.IsGround() {
							t.Fatalf("proof root %v not ground", proof.Goal)
						}
						checkProof(t, ds.KB, proof)
					}
				}
			}
			if checked == 0 {
				t.Fatal("no covered (rule, example) pairs exercised")
			}
		})
	}
}
