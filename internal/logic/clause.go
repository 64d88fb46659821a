package logic

import "math"

// Literal is a (possibly negated) callable term appearing in a clause body.
// Negation is negation-as-failure.
type Literal struct {
	Neg  bool
	Atom Term
}

// Lit wraps a positive literal around an atom or compound term.
func Lit(t Term) Literal { return Literal{Atom: t} }

// NegLit wraps a negated literal around an atom or compound term.
func NegLit(t Term) Literal { return Literal{Neg: true, Atom: t} }

// String renders the literal in Prolog syntax.
func (l Literal) String() string { return string(l.AppendTo(nil)) }

// AppendTo appends the String rendering of l to dst.
func (l Literal) AppendTo(dst []byte) []byte {
	if l.Neg {
		dst = append(dst, "\\+"...)
	}
	return l.Atom.AppendTo(dst)
}

// EqualLiteral reports structural equality of two literals.
func EqualLiteral(a, b Literal) bool { return a.Neg == b.Neg && Equal(a.Atom, b.Atom) }

// Clause is a definite clause Head :- Body. A fact has an empty body.
type Clause struct {
	Head Term
	Body []Literal
}

// Fact wraps a head-only clause.
func Fact(head Term) Clause { return Clause{Head: head} }

// Rule builds a clause from a head and body atoms (all positive).
func Rule(head Term, body ...Term) Clause {
	c := Clause{Head: head}
	for _, t := range body {
		c.Body = append(c.Body, Lit(t))
	}
	return c
}

// IsFact reports whether the clause has no body.
func (c *Clause) IsFact() bool { return len(c.Body) == 0 }

// NumVars returns one more than the largest variable index in the clause
// (i.e. the size a Bindings store needs for it), or 0 if ground.
func (c *Clause) NumVars() int {
	m := c.Head.MaxVar()
	for i := range c.Body {
		if v := c.Body[i].Atom.MaxVar(); v > m {
			m = v
		}
	}
	return m + 1
}

// OffsetVars returns a copy of the clause with all variable indices shifted
// by k (used to rename a program clause apart before resolution).
func (c *Clause) OffsetVars(k int) Clause {
	out := Clause{Head: c.Head.OffsetVars(k)}
	if len(c.Body) > 0 {
		out.Body = make([]Literal, len(c.Body))
		for i := range c.Body {
			out.Body[i] = Literal{Neg: c.Body[i].Neg, Atom: c.Body[i].Atom.OffsetVars(k)}
		}
	}
	return out
}

// Canonical returns a copy with variables renumbered 0,1,2,... in order of
// first occurrence (head first, then body left to right). Two clauses that
// are equal up to variable renaming have Equal canonical forms.
func (c Clause) Canonical() Clause {
	ren := make(map[int]int)
	next := 0
	out := Clause{Head: c.Head.RenameVars(ren, &next)}
	if len(c.Body) > 0 {
		out.Body = make([]Literal, len(c.Body))
		for i := range c.Body {
			out.Body[i] = Literal{Neg: c.Body[i].Neg, Atom: c.Body[i].Atom.RenameVars(ren, &next)}
		}
	}
	return out
}

// Key returns a string identifying the clause up to variable renaming.
func (c Clause) Key() string {
	canon := c.Canonical()
	return canon.String()
}

// Hash64 returns an FNV-1a structural hash of the clause (variables hash by
// index, so it distinguishes only up to structural equality, not renaming).
// Pair with EqualClause to build allocation-free clause-keyed caches:
// structurally equal clauses hash equally.
func (c *Clause) Hash64() uint64 {
	const fnvOffset uint64 = 14695981039346656037
	h := hashTerm(fnvOffset, c.Head)
	for i := range c.Body {
		if c.Body[i].Neg {
			h = hashByte(h, 1)
		} else {
			h = hashByte(h, 0)
		}
		h = hashTerm(h, c.Body[i].Atom)
	}
	return h
}

func hashByte(h uint64, b byte) uint64 {
	const fnvPrime uint64 = 1099511628211
	return (h ^ uint64(b)) * fnvPrime
}

func hashU64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = hashByte(h, byte(v>>s))
	}
	return h
}

func hashTerm(h uint64, t Term) uint64 {
	h = hashByte(h, byte(t.Kind))
	switch t.Kind {
	case Int, Float:
		num := t.Num
		if num == 0 {
			num = 0 // normalize -0.0 so Equal terms hash equally
		}
		h = hashU64(h, math.Float64bits(num))
	default:
		h = hashU64(h, uint64(t.Sym))
	}
	h = hashByte(h, byte(len(t.Args)))
	for i := range t.Args {
		h = hashTerm(h, t.Args[i])
	}
	return h
}

// EqualClause reports structural equality (not up to renaming; use Key or
// Canonical for alpha-equivalence).
func EqualClause(a, b *Clause) bool {
	if !Equal(a.Head, b.Head) || len(a.Body) != len(b.Body) {
		return false
	}
	for i := range a.Body {
		if !EqualLiteral(a.Body[i], b.Body[i]) {
			return false
		}
	}
	return true
}

// Length returns the number of literals in the clause including the head.
func (c *Clause) Length() int { return 1 + len(c.Body) }

// String renders the clause in Prolog syntax, without the trailing period.
func (c Clause) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends the String rendering of c to dst.
func (c *Clause) AppendTo(dst []byte) []byte {
	dst = c.Head.AppendTo(dst)
	for i := range c.Body {
		if i == 0 {
			dst = append(dst, " :- "...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = c.Body[i].AppendTo(dst)
	}
	return dst
}

// Vars returns the set of variable indices used in the clause.
func (c *Clause) Vars() map[int]bool {
	set := make(map[int]bool)
	c.Head.CollectVars(set)
	for i := range c.Body {
		c.Body[i].Atom.CollectVars(set)
	}
	return set
}
