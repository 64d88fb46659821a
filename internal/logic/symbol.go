// Package logic implements the first-order logic substrate used by the ILP
// engine: interned symbols, terms, literals, clauses, substitutions,
// unification, θ-subsumption and a Prolog-subset reader/printer.
//
// Terms are immutable after construction; all mutation during deduction goes
// through a Bindings store with a trail, so the solver can backtrack cheaply
// and several goroutines can reason over the same program concurrently, each
// with its own Bindings.
package logic

import "sync"

// Symbol is an interned identifier for a functor or constant name.
// Comparing two symbols compares the underlying strings in O(1).
type Symbol int32

var symtab = struct {
	mu    sync.RWMutex
	names []string
	index map[string]Symbol
}{index: make(map[string]Symbol)}

// Intern returns the unique Symbol for name, creating it if necessary.
// It is safe for concurrent use.
func Intern(name string) Symbol {
	symtab.mu.RLock()
	s, ok := symtab.index[name]
	symtab.mu.RUnlock()
	if ok {
		return s
	}
	symtab.mu.Lock()
	defer symtab.mu.Unlock()
	if s, ok = symtab.index[name]; ok {
		return s
	}
	s = Symbol(len(symtab.names))
	symtab.names = append(symtab.names, name)
	symtab.index[name] = s
	return s
}

// InternBytes is Intern for a name held as bytes. A name already interned
// is looked up without allocating; only a new name is copied into a string.
func InternBytes(name []byte) Symbol {
	symtab.mu.RLock()
	s, ok := symtab.index[string(name)]
	symtab.mu.RUnlock()
	if ok {
		return s
	}
	return Intern(string(name))
}

// Name returns the string this symbol interns.
func (s Symbol) Name() string {
	symtab.mu.RLock()
	defer symtab.mu.RUnlock()
	if s < 0 || int(s) >= len(symtab.names) {
		return "<bad symbol>"
	}
	return symtab.names[s]
}

// NumSymbols reports how many distinct symbols have been interned.
func NumSymbols() int {
	symtab.mu.RLock()
	defer symtab.mu.RUnlock()
	return len(symtab.names)
}
