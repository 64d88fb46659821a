package solve

import (
	"testing"

	"repro/internal/logic"
)

func proveBody(t *testing.T, kb *KB, src string) bool {
	t.Helper()
	cl := logic.MustParseClause(src)
	m := NewMachine(kb, DefaultBudget)
	return m.Prove(cl.Body, cl.NumVars())
}

func TestArithmeticEdgeCases(t *testing.T) {
	kb := NewKB()
	cases := []struct {
		goal string
		want bool
	}{
		{"ok :- X is 6 / 0.", false},               // division by zero fails, no panic
		{"ok :- X is 2 + 3 * 4, X = 14.", true},    // precedence
		{"ok :- X is (2 + 3) * 4, X = 20.", false}, // parens unsupported: parse error guarded below
		{"ok :- X is -3, X < 0.", true},            // unary minus value
		{"ok :- 1 < 2, 2 =< 2, 3 > 2, 2 >= 2.", true},
		{"ok :- X < 1.", false},      // unbound comparison fails
		{"ok :- X is Y + 1.", false}, // unbound arithmetic fails
	}
	for _, c := range cases {
		cl, err := logic.ParseClause(c.goal)
		if err != nil {
			continue // the parenthesised case: grammar has no grouping parens
		}
		m := NewMachine(kb, DefaultBudget)
		if got := m.Prove(cl.Body, cl.NumVars()); got != c.want {
			t.Errorf("%s: got %v, want %v", c.goal, got, c.want)
		}
	}
}

// TestArithmeticNested drives every arithmetic functor through nested
// expressions — bound variables, unary minus over variables and over other
// unary minuses, left-associative chains — under is and on both sides of
// each comparison, and pins what is not arithmetic: unary plus, unknown
// functors, atoms and a division by zero deep inside.
func TestArithmeticNested(t *testing.T) {
	kb := NewKB()
	for _, c := range []struct {
		goal string
		want bool
	}{
		{"ok :- Y = 3, X is Y * 2 - 10 / 4 + -Y, X > 0.4, X < 0.6.", true}, // 6 - 2.5 - 3
		{"ok :- Y = 5, X is -Y * 2, X = -10.", true},
		{"ok :- Y = 5, X is - -Y, X = 5.", true},
		{"ok :- Y = 5, X is -Y - -Y, X = 0.", true},
		{"ok :- X is 10 - 3 - 2, X = 5.", true}, // left-associative
		{"ok :- X is 8 / 2 / 2, X = 2.", true},
		{"ok :- X is 2 * 3 + 4 * 5 - 6 / 3, X = 24.", true},
		{"ok :- Y = 2, Y * Y - 1 > Y + 0.5, 8 / Y =< -Y * -Y.", true},
		{"ok :- Y = 2, Y * Y >= 2 + Y, Y - 3 < -Y / 4.", true}, // 4 >= 4, -1 < -0.5
		{"ok :- Y = 2, Y * Y < 2 + Y.", false},
		{"ok :- Y = 2, -Y > -Y / 4.", false},
		{"ok :- Y = 2, 1 + Y * 3 =< 6.", false},
		{"ok :- Y = 2, 3 >= Y * Y.", false},
		{"ok :- Y = 2, Z is Y - Y, X is 1 + 4 / Z.", false}, // nested division by zero
		{"ok :- X is +3 + 1.", false},                       // unary plus is not arithmetic
		{"ok :- X is 1 + foo(2, 3).", false},
		{"ok :- X is 1 + a.", false},
		{"ok :- Y = a, X is -Y.", false},
	} {
		if got := proveBody(t, kb, c.goal); got != c.want {
			t.Errorf("%s: got %v, want %v", c.goal, got, c.want)
		}
	}
}

func TestNegationInteractsWithBindings(t *testing.T) {
	kb := NewKB()
	if err := kb.AddSource(`
		item(a). item(b).
		broken(a).
	`); err != nil {
		t.Fatal(err)
	}
	// Find an item that is not broken: NAF must not leak bindings from the
	// failed sub-proof.
	if !proveBody(t, kb, "ok :- item(X), \\+broken(X), X = b.") {
		t.Fatal("should find the unbroken item b")
	}
	if proveBody(t, kb, "ok :- item(X), \\+broken(X), X = a.") {
		t.Fatal("a is broken")
	}
}

func TestNestedNegation(t *testing.T) {
	kb := NewKB()
	if err := kb.AddSource(`
		p(x).
		q(X) :- \+r(X).
	`); err != nil {
		t.Fatal(err)
	}
	// \+q(x) where q(x) succeeds via \+r(x): double negation.
	if proveBody(t, kb, "ok :- \\+q(x).") {
		t.Fatal("q(x) holds, so \\+q(x) must fail")
	}
	if !proveBody(t, kb, "ok :- q(x).") {
		t.Fatal("q(x) should hold via NAF")
	}
}

// TestIsBuiltinRegistry asks builtinFor for each builtin at its arity, and
// for a user predicate and builtin names at arities the engine does not
// define.
func TestIsBuiltinRegistry(t *testing.T) {
	goal := func(name string, arity int) logic.Term {
		g := logic.Term{Kind: logic.Atom, Sym: logic.Intern(name)}
		if arity > 0 {
			g.Kind, g.Args = logic.Compound, make([]logic.Term, arity)
		}
		return g
	}
	for _, name := range []string{"=", "\\=", "<", "=<", ">", ">=", "is"} {
		if builtinFor(goal(name, 2)) == nil {
			t.Errorf("%s/2 not registered", name)
		}
		for _, arity := range []int{0, 1, 3} {
			if builtinFor(goal(name, arity)) != nil {
				t.Errorf("%s/%d reported as builtin", name, arity)
			}
		}
	}
	for _, name := range []string{"true", "fail"} {
		if builtinFor(goal(name, 0)) == nil {
			t.Errorf("%s/0 not registered", name)
		}
		if builtinFor(goal(name, 1)) != nil {
			t.Errorf("%s/1 reported as builtin", name)
		}
	}
	if builtinFor(goal("atm", 5)) != nil {
		t.Error("user predicate reported as builtin")
	}
}

func TestBuiltinDoesNotShadowUserFacts(t *testing.T) {
	// User predicates sharing a name but not arity with a builtin.
	kb := NewKB()
	kb.AddFact(logic.MustParseTerm("'='(special)"))
	kb.AddFact(logic.MustParseTerm("is(a, b, c)"))
	kb.AddFact(logic.MustParseTerm("true(x)"))
	m := NewMachine(kb, DefaultBudget)
	for _, g := range []string{"'='(special)", "is(a, b, c)", "true(x)"} {
		if !m.ProveAtom(logic.MustParseTerm(g)) {
			t.Errorf("%s: user fact should be provable beside the builtin", g)
		}
	}
	// Nor do they shadow the builtins.
	for _, body := range []string{"ok :- X = special.", "ok :- X is 1 + 2, X = 3.", "ok :- true."} {
		if !proveBody(t, kb, body) {
			t.Errorf("%s: builtin shadowed by a user predicate", body)
		}
	}
}
