package logic

import (
	"bytes"
	"strconv"
	"strings"
)

// Kind discriminates the variants of a Term.
type Kind uint8

const (
	// Invalid is the zero Kind; it marks unbound slots in a Bindings store.
	Invalid Kind = iota
	// Var is a logic variable, identified by a small integer index.
	Var
	// Atom is a 0-arity constant symbol.
	Atom
	// Int is an integer constant (stored in Num).
	Int
	// Float is a floating-point constant (stored in Num).
	Float
	// Compound is a functor applied to one or more arguments.
	Compound
)

// Term is a first-order term. The zero value is an Invalid term.
//
// For Var terms, Sym holds the variable index. For Atom and Compound terms,
// Sym holds the interned functor name. Numeric constants live in Num; Int
// keeps integral semantics for printing and type checks but shares storage.
type Term struct {
	Kind Kind
	Sym  Symbol
	Num  float64
	Args []Term
}

// V returns a variable term with the given index.
func V(i int) Term { return Term{Kind: Var, Sym: Symbol(i)} }

// A returns an atom (0-arity constant) term.
func A(name string) Term { return Term{Kind: Atom, Sym: Intern(name)} }

// IntTerm returns an integer constant term.
func IntTerm(v int64) Term { return Term{Kind: Int, Num: float64(v)} }

// FloatTerm returns a floating-point constant term.
func FloatTerm(v float64) Term { return Term{Kind: Float, Num: v} }

// Comp returns a compound term functor(args...). With no arguments it
// degenerates to an atom.
func Comp(functor string, args ...Term) Term {
	if len(args) == 0 {
		return A(functor)
	}
	return Term{Kind: Compound, Sym: Intern(functor), Args: args}
}

// CompSym is Comp with an already-interned functor symbol.
func CompSym(functor Symbol, args ...Term) Term {
	if len(args) == 0 {
		return Term{Kind: Atom, Sym: functor}
	}
	return Term{Kind: Compound, Sym: functor, Args: args}
}

// VarIndex returns the variable index of a Var term.
func (t Term) VarIndex() int { return int(t.Sym) }

// IsCallable reports whether t can stand as a goal or fact head
// (an atom or compound term).
func (t Term) IsCallable() bool { return t.Kind == Atom || t.Kind == Compound }

// IsNumber reports whether t is an Int or Float constant.
func (t Term) IsNumber() bool { return t.Kind == Int || t.Kind == Float }

// IsGround reports whether t contains no variables.
func (t Term) IsGround() bool {
	switch t.Kind {
	case Var:
		return false
	case Compound:
		for i := range t.Args {
			if !t.Args[i].IsGround() {
				return false
			}
		}
	}
	return true
}

// Arity returns the number of arguments (0 for non-compound terms).
func (t Term) Arity() int { return len(t.Args) }

// PredKey identifies a predicate by functor symbol and arity.
type PredKey struct {
	Sym   Symbol
	Arity int
}

func (k PredKey) String() string { return k.Sym.Name() + "/" + strconv.Itoa(k.Arity) }

// Pred returns the predicate key of a callable term.
func (t Term) Pred() PredKey { return PredKey{Sym: t.Sym, Arity: len(t.Args)} }

// Equal reports structural equality of two terms (variables compare by index).
func Equal(a, b Term) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Var, Atom:
		return a.Sym == b.Sym
	case Int, Float:
		return a.Num == b.Num
	case Compound:
		if a.Sym != b.Sym || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !Equal(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	}
	return a.Kind == b.Kind
}

// MaxVar returns the largest variable index occurring in t, or -1 if none.
func (t Term) MaxVar() int {
	switch t.Kind {
	case Var:
		return int(t.Sym)
	case Compound:
		m := -1
		for i := range t.Args {
			if v := t.Args[i].MaxVar(); v > m {
				m = v
			}
		}
		return m
	}
	return -1
}

// CollectVars appends the indices of all variables in t to set (a map used as
// a set). It is used for input/output variable discipline in refinement.
func (t Term) CollectVars(set map[int]bool) {
	switch t.Kind {
	case Var:
		set[int(t.Sym)] = true
	case Compound:
		for i := range t.Args {
			t.Args[i].CollectVars(set)
		}
	}
}

// OffsetVars returns a copy of t with every variable index shifted by k.
// Terms without variables are returned as-is (no copy).
func (t Term) OffsetVars(k int) Term {
	if k == 0 {
		return t
	}
	switch t.Kind {
	case Var:
		return V(int(t.Sym) + k)
	case Compound:
		changed := false
		args := make([]Term, len(t.Args))
		for i := range t.Args {
			args[i] = t.Args[i].OffsetVars(k)
			if !Equal(args[i], t.Args[i]) {
				changed = true
			}
		}
		if !changed {
			return t
		}
		return Term{Kind: Compound, Sym: t.Sym, Args: args}
	}
	return t
}

// RenameVars returns a copy of t with variables renumbered through ren;
// variables absent from ren are assigned the next index, recorded in ren.
// next must point at the first free index.
func (t Term) RenameVars(ren map[int]int, next *int) Term {
	switch t.Kind {
	case Var:
		idx, ok := ren[int(t.Sym)]
		if !ok {
			idx = *next
			ren[int(t.Sym)] = idx
			*next++
		}
		return V(idx)
	case Compound:
		args := make([]Term, len(t.Args))
		for i := range t.Args {
			args[i] = t.Args[i].RenameVars(ren, next)
		}
		return Term{Kind: Compound, Sym: t.Sym, Args: args}
	}
	return t
}

// String renders t in Prolog-ish syntax. Variables print as A, B, ...,
// V26, V27, ... by index.
func (t Term) String() string { return string(t.AppendTo(nil)) }

func appendVarName(dst []byte, i int) []byte {
	if i >= 0 && i < 26 {
		return append(dst, byte('A'+i))
	}
	return strconv.AppendInt(append(dst, 'V'), int64(i), 10)
}

func needsQuote(name string) bool {
	if name == "" {
		return true
	}
	// Symbolic operator atoms print bare.
	switch name {
	case "=", "\\=", "<", "=<", ">", ">=", "is", "+", "-", "#", "*", "/":
		return false
	}
	c := name[0]
	if c < 'a' || c > 'z' {
		return true
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return true
		}
	}
	return false
}

func appendAtomName(dst []byte, name string) []byte {
	if !needsQuote(name) {
		return append(dst, name...)
	}
	dst = append(dst, '\'')
	// ReplaceAll hands name back uncopied when it holds no quote.
	dst = append(dst, strings.ReplaceAll(name, "'", "\\'")...)
	return append(dst, '\'')
}

var infixOps = map[string]bool{
	"=": true, "\\=": true, "<": true, "=<": true, ">": true, ">=": true, "is": true,
}

// AppendTo appends the String rendering of t to dst and returns the extended
// buffer. It is the one term writer: String is AppendTo(nil).
func (t Term) AppendTo(dst []byte) []byte {
	switch t.Kind {
	case Invalid:
		dst = append(dst, "<invalid>"...)
	case Var:
		dst = appendVarName(dst, int(t.Sym))
	case Atom:
		dst = appendAtomName(dst, t.Sym.Name())
	case Int:
		dst = strconv.AppendInt(dst, int64(t.Num), 10)
	case Float:
		start := len(dst)
		dst = strconv.AppendFloat(dst, t.Num, 'g', -1, 64)
		// Keep the Float kind readable back: integral floats get a ".0".
		if !bytes.ContainsAny(dst[start:], ".eE") {
			dst = append(dst, ".0"...)
		}
	case Compound:
		name := t.Sym.Name()
		if len(t.Args) == 2 && infixOps[name] {
			dst = t.Args[0].AppendTo(dst)
			dst = append(dst, ' ')
			dst = append(dst, name...)
			dst = append(dst, ' ')
			return t.Args[1].AppendTo(dst)
		}
		if len(t.Args) == 1 && (name == "+" || name == "-" || name == "#") {
			dst = append(dst, name...)
			return t.Args[0].AppendTo(dst)
		}
		dst = appendAtomName(dst, name)
		dst = append(dst, '(')
		for i := range t.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = t.Args[i].AppendTo(dst)
		}
		dst = append(dst, ')')
	}
	return dst
}
