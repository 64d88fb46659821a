package solve

import (
	"testing"

	"repro/internal/logic"
)

// TestSymbolsOutsideTablesAreUnknown asks goals that carry a symbol id no
// table holds — negative, or 1<<20 past the symbol table — as a functor, as
// an indexed argument (first and second position) and as an arithmetic
// functor. Every per-symbol table (a switch's dense array, the symTab of
// the builtins, of the program's and of the KB's predicates, the machine's
// operator cache) must treat such an id as unknown: the goal fails,
// nothing panics, and the operator cache does not grow for it.
func TestSymbolsOutsideTablesAreUnknown(t *testing.T) {
	kb := NewKB()
	if err := kb.AddSource(`
		p(a, b). p(a, c). p(d, b).
		q(X) :- p(X, b).
		sum(X) :- X is 1 + 2.
	`); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(kb, DefaultBudget)
	if !m.ProveAtom(logic.MustParseTerm("sum(3)")) {
		t.Fatal("sum(3) not proved")
	}
	arith := len(m.arith)
	atom := func(s logic.Symbol) logic.Term { return logic.Term{Kind: logic.Atom, Sym: s} }
	for _, bad := range []logic.Symbol{-1, logic.Symbol(logic.NumSymbols() + 1<<20)} {
		a, b := atom(logic.Intern("a")), atom(logic.Intern("b"))
		p := logic.Intern("p")
		goals := map[string]logic.Term{
			"functor":          {Kind: logic.Compound, Sym: bad, Args: []logic.Term{a}},
			"atom goal":        atom(bad),
			"first argument":   logic.CompSym(p, atom(bad), b),
			"second argument":  logic.CompSym(p, a, atom(bad)),
			"rule's argument":  logic.Comp("q", atom(bad)),
			"binary operator":  logic.Comp("is", logic.V(0), logic.CompSym(bad, logic.IntTerm(1), logic.IntTerm(2))),
			"unary operator":   logic.Comp("is", logic.V(0), logic.CompSym(bad, logic.IntTerm(1))),
			"compared operand": logic.Comp("<", logic.CompSym(bad, logic.IntTerm(1)), logic.IntTerm(2)),
		}
		for name, g := range goals {
			if m.Prove([]logic.Literal{{Atom: g}}, 1) {
				t.Errorf("symbol %d as %s: %s proved", bad, name, g)
			}
		}
		for _, g := range []logic.Term{goals["functor"], goals["atom goal"]} {
			if kb.predFor(g) != nil || kb.program().predFor(g) != nil {
				t.Errorf("symbol %d as the functor of %s: a predicate resolved", bad, g)
			}
		}
		if n := kb.Footprint(atom(bad)); n != 0 {
			t.Errorf("symbol %d: footprint %d, want 0", bad, n)
		}
		// A rule whose body calls the unknown functor resolves it at
		// compile time.
		rkb := NewKB()
		rkb.Add(logic.Clause{Head: logic.Comp("r", logic.V(0)), Body: []logic.Literal{{Atom: logic.Term{Kind: logic.Compound, Sym: bad, Args: []logic.Term{logic.V(0)}}}}})
		if NewMachine(rkb, DefaultBudget).ProveAtom(logic.Comp("r", a)) {
			t.Errorf("symbol %d called from a rule body: proved", bad)
		}
	}
	if len(m.arith) != arith {
		t.Errorf("operator cache grew from %d to %d entries", arith, len(m.arith))
	}
}
