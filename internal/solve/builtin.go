package solve

import (
	"repro/internal/logic"
)

// builtinFn evaluates a deterministic builtin goal; it may bind variables.
// The caller brackets the call with Mark/Undo, so a builtin does not need to
// clean up after itself on failure.
type builtinFn func(m *Machine, goal logic.Term) bool

// builtins holds the engine's own predicates. Their names are interned at
// init, so their symbols are small and the table stays tiny.
var builtins symTab[builtinFn]

// builtinFor returns the builtin implementing the goal's predicate, or nil.
func builtinFor(t logic.Term) builtinFn {
	if t.Kind != logic.Atom && t.Kind != logic.Compound {
		return nil
	}
	return builtins.get(t.Sym, len(t.Args))
}

func init() {
	reg := func(name string, arity int, fn builtinFn) {
		builtins.add(logic.Intern(name), arity, fn)
	}
	reg("true", 0, func(*Machine, logic.Term) bool { return true })
	reg("fail", 0, func(*Machine, logic.Term) bool { return false })
	reg("=", 2, func(m *Machine, g logic.Term) bool {
		return m.bs.Unify(g.Args[0], g.Args[1])
	})
	reg("\\=", 2, func(m *Machine, g logic.Term) bool {
		mark := m.bs.Mark()
		ok := m.bs.Unify(g.Args[0], g.Args[1])
		m.bs.Undo(mark)
		return !ok
	})
	cmp := func(test func(a, b float64) bool) builtinFn {
		return func(m *Machine, g logic.Term) bool {
			a, okA := m.evalArith(g.Args[0])
			b, okB := m.evalArith(g.Args[1])
			return okA && okB && test(a, b)
		}
	}
	reg("<", 2, cmp(func(a, b float64) bool { return a < b }))
	reg("=<", 2, cmp(func(a, b float64) bool { return a <= b }))
	reg(">", 2, cmp(func(a, b float64) bool { return a > b }))
	reg(">=", 2, cmp(func(a, b float64) bool { return a >= b }))
	reg("is", 2, func(m *Machine, g logic.Term) bool {
		v, ok := m.evalArith(g.Args[1])
		if !ok {
			return false
		}
		return m.bs.Unify(g.Args[0], logic.FloatTerm(v))
	})
}

// arithOp is what a functor symbol names in an arithmetic expression.
type arithOp uint8

const (
	arithUnseen arithOp = iota // not looked up yet
	arithNone
	arithAdd
	arithSub
	arithMul
	arithDiv
)

// arithFor returns the operator functor symbol s names in an arithmetic
// expression. Reading a name out of the symbol table takes its lock, which
// every machine shares, so each machine reads a symbol's name once and keeps
// the answer. Interning the four names at start-up instead would shift every
// symbol interned after this package's initialisation, and with them the
// wire goldens. A symbol outside the symbol table (negative, or never
// interned) names no operator, and the cache does not grow for it.
func (m *Machine) arithFor(s logic.Symbol) arithOp {
	if s >= 0 && int(s) < len(m.arith) && m.arith[s] != arithUnseen {
		return m.arith[s]
	}
	if s < 0 || int(s) >= logic.NumSymbols() {
		return arithNone
	}
	op := arithNone
	switch s.Name() {
	case "+":
		op = arithAdd
	case "-":
		op = arithSub
	case "*":
		op = arithMul
	case "/":
		op = arithDiv
	}
	if int(s) >= len(m.arith) {
		m.arith = append(m.arith, make([]arithOp, int(s)+1-len(m.arith))...)
	}
	m.arith[s] = op
	return op
}

// evalArith evaluates t as an arithmetic expression under current bindings.
// Supported: numeric constants, +, -, *, / (binary), - (unary).
func (m *Machine) evalArith(t logic.Term) (float64, bool) {
	t = m.bs.Walk(t)
	switch t.Kind {
	case logic.Int, logic.Float:
		return t.Num, true
	case logic.Compound:
		op := m.arithFor(t.Sym)
		if len(t.Args) == 1 && op == arithSub {
			v, ok := m.evalArith(t.Args[0])
			return -v, ok
		}
		if len(t.Args) != 2 {
			return 0, false
		}
		a, okA := m.evalArith(t.Args[0])
		b, okB := m.evalArith(t.Args[1])
		if !okA || !okB {
			return 0, false
		}
		switch op {
		case arithAdd:
			return a + b, true
		case arithSub:
			return a - b, true
		case arithMul:
			return a * b, true
		case arithDiv:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		}
	}
	return 0, false
}
