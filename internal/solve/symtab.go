package solve

import (
	"iter"

	"repro/internal/logic"
)

// symTab maps a predicate — a functor symbol and an arity — to a value. The
// KB's clause stores, the compiled program's predicates and the builtins
// each keep one. Functor symbols are small interned integers, so a lookup
// is an index and an arity compare, with no hashing: a symbol's slot holds
// its lowest arity inline and any further arities behind it, ascending.
//
// The table is the one place that bounds a symbol: a negative id, or one
// past the table, names nothing, and looking it up never grows the table.
type symTab[V any] struct {
	slots []symEntry[V]
	n     int
}

// symEntry is one predicate and its value. A symbol's slot holds its lowest
// arity (−1 when the symbol names no predicate); each further arity hangs
// behind it through next, in ascending order.
type symEntry[V any] struct {
	arity int32
	v     V
	next  *symEntry[V]
}

// get returns the value of predicate s/arity, or the zero V if the table
// has none.
func (t *symTab[V]) get(s logic.Symbol, arity int) (v V) {
	if slots, i := t.slots, int(s); uint(i) < uint(len(slots)) {
		e := &slots[i]
		for int(e.arity) != arity {
			if e = e.next; e == nil {
				return v
			}
		}
		return e.v
	}
	return v
}

// add enters predicate s/arity, which the table must not hold yet, with
// value v. A symbol past the table grows it once.
func (t *symTab[V]) add(s logic.Symbol, arity int, v V) {
	if int(s) >= len(t.slots) {
		t.grow(int(s) + 1)
	}
	t.n++
	a, e := int32(arity), &t.slots[s]
	switch {
	case e.arity < 0:
		*e = symEntry[V]{arity: a, v: v}
	case a < e.arity:
		moved := *e
		*e = symEntry[V]{arity: a, v: v, next: &moved}
	default:
		for e.next != nil && e.next.arity < a {
			e = e.next
		}
		e.next = &symEntry[V]{arity: a, v: v, next: e.next}
	}
}

// grow extends the table to n slots; the new ones name nothing. Past its
// capacity the table grows by a quarter at least, so a KB whose functors
// arrive in rising symbol order does not copy the table per predicate. The
// new array is made at that capacity and filled by append: the compiler
// folds an append of a make into one allocation only when it does not
// instrument the code, so under -race that form would allocate twice.
func (t *symTab[V]) grow(n int) {
	old := len(t.slots)
	if n > cap(t.slots) {
		t.slots = append(make([]symEntry[V], 0, max(n, cap(t.slots)*5/4)), t.slots...)
	}
	t.slots = t.slots[:n]
	for i := old; i < n; i++ {
		t.slots[i].arity = -1
	}
}

// len reports the number of predicates in the table.
func (t *symTab[V]) len() int { return t.n }

// all yields every predicate and its value in ascending (symbol, arity)
// order.
func (t *symTab[V]) all() iter.Seq2[logic.PredKey, V] {
	return func(yield func(logic.PredKey, V) bool) {
		for s := range t.slots {
			for e := &t.slots[s]; e != nil && e.arity >= 0; e = e.next {
				if !yield(logic.PredKey{Sym: logic.Symbol(s), Arity: int(e.arity)}, e.v) {
					return
				}
			}
		}
	}
}

// mapTab returns a table of t's predicates, each valued f(key, value), with
// f called in ascending (symbol, arity) order. The new table shares no
// storage with t.
func mapTab[V, W any](t *symTab[V], f func(logic.PredKey, V) W) symTab[W] {
	var out symTab[W]
	out.grow(len(t.slots))
	for k, v := range t.all() {
		out.add(k.Sym, k.Arity, f(k, v))
	}
	return out
}
