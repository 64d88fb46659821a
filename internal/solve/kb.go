// Package solve implements a knowledge base of definite clauses and a depth-
// and inference-bounded SLD resolution engine over it.
//
// The engine is the theorem prover behind every ILP coverage test: deciding
// whether background knowledge plus a candidate rule entails an example. A
// KB stores clauses; the compiler (compile.go) indexes its facts by first
// and second argument once, on the first query. A KB is safe for concurrent
// readers once populated; each goroutine reasons through its own Machine,
// which owns all mutable state (bindings, trail, fresh-variable counter,
// inference counters).
package solve

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// storedClause is a clause with its variable count, the renaming width of
// each of its instances.
type storedClause struct {
	clause  logic.Clause
	numVars int
}

// pred holds all clauses for one predicate in insertion order, facts apart
// from rules.
type pred struct {
	facts []storedClause
	rules []storedClause
	// adding counts the facts an AddFacts call brings, between its two
	// passes.
	adding int
}

// KB is a knowledge base of definite clauses, stored per predicate in
// insertion order. Its compiled program indexes the facts by their first and
// second argument constants. Adding clauses is not goroutine-safe; reading
// (solving) is.
type KB struct {
	preds symTab[*pred]
	size  int

	// prog caches the compiled bytecode program (compile.go). It is built
	// lazily by the first query and shared read-only by every
	// machine over this KB; Add invalidates it. compiles counts builds so
	// tests can assert the compile-once-per-KB contract.
	prog      atomic.Pointer[program]
	compileMu sync.Mutex
	compiles  atomic.Int64
}

// NewKB returns an empty knowledge base.
func NewKB() *KB {
	return &KB{}
}

// predFor resolves the clause store for a callable goal, or nil.
func (kb *KB) predFor(goal logic.Term) *pred {
	return kb.preds.get(goal.Sym, len(goal.Args))
}

// program returns the compiled form of the KB, building it on first use.
// The loaded-pointer fast path inlines into the per-query setup; concurrent
// first callers are safe — one compiles under the mutex, the rest load the
// published pointer.
func (kb *KB) program() *program {
	if p := kb.prog.Load(); p != nil {
		return p
	}
	return kb.compileProgram()
}

func (kb *KB) compileProgram() *program {
	kb.compileMu.Lock()
	defer kb.compileMu.Unlock()
	if p := kb.prog.Load(); p != nil {
		return p
	}
	p := compileKB(kb)
	kb.compiles.Add(1)
	kb.prog.Store(p)
	return p
}

// Compilations reports how many times this KB has been compiled to bytecode
// (for tests asserting the compile-once sharing contract).
func (kb *KB) Compilations() int64 { return kb.compiles.Load() }

// Add appends a clause to its predicate's facts (empty body) or rules.
func (kb *KB) Add(c logic.Clause) {
	if kb.prog.Load() != nil {
		kb.prog.Store(nil) // mutation invalidates the compiled program
	}
	p := kb.predOf(c.Head)
	sc := storedClause{clause: c, numVars: c.NumVars()}
	kb.size++
	if c.IsFact() {
		p.facts = append(p.facts, sc)
	} else {
		p.rules = append(p.rules, sc)
	}
}

// predOf returns the clause store of head's predicate, creating it if new.
func (kb *KB) predOf(head logic.Term) *pred {
	if p := kb.predFor(head); p != nil {
		return p
	}
	p := &pred{}
	kb.preds.add(head.Sym, len(head.Args), p)
	return p
}

// AddFact inserts head as a fact.
func (kb *KB) AddFact(head logic.Term) { kb.Add(logic.Fact(head)) }

// AddFacts inserts every head as a fact, in order, as AddFact one by one
// would, but counts each predicate's new facts first and grows its storage
// once: a generated dataset adds thousands of facts to a few predicates.
func (kb *KB) AddFacts(heads []logic.Term) {
	if kb.prog.Load() != nil {
		kb.prog.Store(nil)
	}
	var grown []*pred
	for i := range heads {
		p := kb.predOf(heads[i])
		if p.adding == 0 {
			grown = append(grown, p)
		}
		p.adding++
	}
	for _, p := range grown {
		p.facts = slices.Grow(p.facts, p.adding)
		p.adding = 0
	}
	for i := range heads {
		c := logic.Fact(heads[i])
		p := kb.predFor(c.Head)
		p.facts = append(p.facts, storedClause{clause: c, numVars: c.NumVars()})
	}
	kb.size += len(heads)
}

// AddProgram inserts every clause of a parsed program.
func (kb *KB) AddProgram(cs []logic.Clause) {
	for _, c := range cs {
		kb.Add(c)
	}
}

// AddSource parses src and inserts the clauses.
func (kb *KB) AddSource(src string) error {
	cs, err := logic.ParseProgram(src)
	if err != nil {
		return err
	}
	kb.AddProgram(cs)
	return nil
}

// Size reports the number of stored clauses.
func (kb *KB) Size() int { return kb.size }

// Predicates returns the predicate keys in ascending (symbol, arity) order.
func (kb *KB) Predicates() []logic.PredKey {
	out := make([]logic.PredKey, 0, kb.preds.len())
	for k := range kb.preds.all() {
		out = append(out, k)
	}
	return out
}

// Clone returns a deep-enough copy of the KB that may be extended
// independently (clause storage is shared copy-on-write style: slices are
// duplicated, clause structures are immutable and shared).
func (kb *KB) Clone() *KB {
	return &KB{
		preds: mapTab(&kb.preds, func(_ logic.PredKey, p *pred) *pred {
			return &pred{
				facts: append([]storedClause(nil), p.facts...),
				rules: append([]storedClause(nil), p.rules...),
			}
		}),
		size: kb.size,
	}
}

// AllClauses returns every stored clause grouped by predicate in
// deterministic order (facts before rules within each predicate), for
// dataset export tooling.
func (kb *KB) AllClauses() []logic.Clause {
	var out []logic.Clause
	for _, p := range kb.preds.all() {
		for _, sc := range p.facts {
			out = append(out, sc.clause)
		}
		for _, sc := range p.rules {
			out = append(out, sc.clause)
		}
	}
	return out
}

// Footprint returns the number of facts that hold the constant c as their
// first or second argument, summed over all predicates and read from the
// compiled switches: the facts a lookup of c selects beyond those every
// lookup scans. For an ILP example's individual — the molecule of
// active(m12), the train of eastbound(t4) — this is the size of its
// immediate relational neighbourhood, which is what drives the SLD cost of
// saturating or covering the example: a cheap, engine-independent
// per-example cost proxy the elastic scheduler balances partitions by.
func (kb *KB) Footprint(c logic.Term) int {
	if c.Kind != logic.Atom && c.Kind != logic.Int && c.Kind != logic.Float {
		return 0
	}
	n := 0
	for _, cp := range kb.program().preds.all() {
		for _, sw := range []*vmSwitch{&cp.arg1, &cp.arg2} {
			l, _ := sw.lookup(&c)
			n += l.nFacts - sw.miss.nFacts
		}
	}
	return n
}
