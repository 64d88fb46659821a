package solve

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/logic"
)

// TestSymTab enters one symbol at several arities, lowest last, and another
// past them, then asks every arity, the symbols around them and ids outside
// the table: each answer is the value entered for exactly that (symbol,
// arity), iteration is in ascending (symbol, arity) order, and no lookup
// grows the table.
func TestSymTab(t *testing.T) {
	var tab symTab[string]
	tab.add(3, 2, "s3/2")
	tab.add(3, 5, "s3/5")
	tab.add(3, 1, "s3/1")
	tab.add(3, 0, "s3/0")
	tab.add(7, 1, "s7/1")
	tab.add(3, 4, "s3/4")
	slots := len(tab.slots)
	for _, c := range []struct {
		s     logic.Symbol
		arity int
		want  string
	}{
		{3, 0, "s3/0"}, {3, 1, "s3/1"}, {3, 2, "s3/2"}, {3, 3, ""}, {3, 4, "s3/4"}, {3, 5, "s3/5"}, {3, 6, ""},
		{7, 1, "s7/1"}, {7, 0, ""}, {7, 2, ""},
		{0, 0, ""}, {2, 2, ""}, {4, 0, ""}, {8, 1, ""},
		{-1, 0, ""}, {-1, 1, ""}, {1 << 20, 1, ""}, {-1 << 31, 0, ""},
	} {
		if got := tab.get(c.s, c.arity); got != c.want {
			t.Errorf("get(%d, %d) = %q, want %q", c.s, c.arity, got, c.want)
		}
	}
	if len(tab.slots) != slots {
		t.Errorf("lookups grew the table from %d to %d slots", slots, len(tab.slots))
	}
	var order []string
	for k, v := range tab.all() {
		if want := fmt.Sprintf("s%d/%d", k.Sym, k.Arity); v != want {
			t.Errorf("all yields %v with %q, want %q", k, v, want)
		}
		order = append(order, v)
	}
	if want := []string{"s3/0", "s3/1", "s3/2", "s3/4", "s3/5", "s7/1"}; !slices.Equal(order, want) || tab.len() != len(want) {
		t.Errorf("all yields %v (len %d), want %v", order, tab.len(), want)
	}
	copied := mapTab(&tab, func(k logic.PredKey, v string) string { return v + "'" })
	copied.add(3, 3, "s3/3")
	copied.add(5, 0, "s5/0")
	if tab.get(3, 3) != "" || tab.get(5, 0) != "" || tab.get(3, 4) != "s3/4" || tab.len() != 6 {
		t.Error("a predicate added to a mapped table shows in the original")
	}
	if copied.get(3, 4) != "s3/4'" || copied.get(3, 3) != "s3/3" || copied.len() != 8 {
		t.Errorf("mapped table: s3/4 = %q, s3/3 = %q, len %d", copied.get(3, 4), copied.get(3, 3), copied.len())
	}
}

// TestDispatchByArity defines one functor at arities 0, 1 and 2, each by
// facts and a rule, beside user predicates that share a builtin's name at
// another arity (is/3, =/1), and asks for them from a query, from a rule
// body, through a variable goal and under negation. The answers are written
// here; the seed engine, which resolves predicates through the same KB
// table, is asked too, as a second check on the answers and the charge.
func TestDispatchByArity(t *testing.T) {
	kb := kbFrom(t, `
		p. p :- p(c).
		p(a). p(X) :- p(X, b).
		p(a, a). p(c, b). p(X, Y) :- q(X, Y).
		q(d, b).
		r(X) :- p(X), p(X, b), \+ p(X, X).
		is(a, b, c).
		'='(special).
	`)
	// run(G) :- G. calls its argument as a goal; the reader has no
	// variable goals, so the clause is built by hand.
	kb.Add(logic.Clause{Head: logic.Comp("run", logic.V(0)), Body: []logic.Literal{logic.Lit(logic.V(0))}})
	for _, c := range []struct{ query, want string }{
		{"p, X = y", "y; y"},
		{"p(X)", "a; c; d"},
		{"p(X, Y)", "a a; c b; d b"},
		{"p(X, b)", "c; d"},
		{"r(X)", "c; d"},
		{"run(p), X = y", "y; y"},
		{"run(p(X))", "a; c; d"},
		{"run(p(X, b))", "c; d"},
		{"G = p, call(G), X = y", "p y; p y"},
		{"G = p(X), call(G)", "p(a) a; p(c) c; p(d) d"},
		{"G = p(X, Y), call(G)", "p(a, a) a a; p(c, b) c b; p(d, b) d b"},
		{"X = y, \\+ p", ""},
		{"X = y, \\+ p(b)", "y"},
		{"X = y, \\+ p(a, a)", ""},
		{"X = y, \\+ p(a, b)", "y"},
		{"is(X, Y, Z)", "a b c"},
		{"X is 1 + 2", "3.0"},
		{"run(is(X, Y, Z))", "a b c"},
		{"G = is(X, Y, Z), call(G)", "is(a, b, c) a b c"},
		{"X = y, \\+ is(a, b, d)", "y"},
		{"'='(X)", "special"},
		{"'='(Y), X = Y", "special special"},
		{"run('='(X))", "special"},
		{"X = y, \\+ '='(other)", "y"},
		{"X = y, \\+ '='(special)", ""},
	} {
		goals := logic.MustParseClause("q :- " + c.query + ".").Body
		// call(V) in the text stands for the variable goal V.
		for i, g := range goals {
			if g.Atom.Kind == logic.Compound && g.Atom.Sym.Name() == "call" {
				goals[i].Atom = g.Atom.Args[0]
			}
		}
		got := enumerate(NewMachine(kb, DefaultBudget), goals)
		if got.solutions != c.want {
			t.Errorf("%s: %q, want %q", c.query, got.solutions, c.want)
		}
		if ref := newRefMachine(kb, DefaultBudget).enumerate(goals); got != ref {
			t.Errorf("%s: %+v, the seed engine %+v", c.query, got, ref)
		}
	}
}
