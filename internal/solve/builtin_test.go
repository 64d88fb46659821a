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

func TestIsBuiltinRegistry(t *testing.T) {
	for _, name := range []string{"=", "\\=", "<", "=<", ">", ">=", "is"} {
		if !IsBuiltin(logic.PredKey{Sym: logic.Intern(name), Arity: 2}) {
			t.Errorf("%s/2 not registered", name)
		}
	}
	if !IsBuiltin(logic.PredKey{Sym: logic.Intern("true"), Arity: 0}) {
		t.Error("true/0 not registered")
	}
	if IsBuiltin(logic.PredKey{Sym: logic.Intern("atm"), Arity: 5}) {
		t.Error("user predicate reported as builtin")
	}
}

func TestBuiltinDoesNotShadowUserFacts(t *testing.T) {
	// A user predicate sharing a name but not arity with a builtin.
	kb := NewKB()
	kb.AddFact(logic.MustParseTerm("'='(special)"))
	m := NewMachine(kb, DefaultBudget)
	if !m.ProveAtom(logic.MustParseTerm("'='(special)")) {
		t.Fatal("=/1 user fact should be provable (builtin is =/2)")
	}
}
