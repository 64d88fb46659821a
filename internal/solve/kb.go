// Package solve implements an indexed knowledge base of definite clauses and
// a depth- and inference-bounded SLD resolution engine over it.
//
// The engine is the theorem prover behind every ILP coverage test: deciding
// whether background knowledge plus a candidate rule entails an example. A
// KB is safe for concurrent readers once populated; each goroutine reasons
// through its own Machine, which owns all mutable state (bindings, trail,
// fresh-variable counter, inference counters).
package solve

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// argIndex indexes fact positions by the constant at one argument position.
// Symbols and numbers get separate maps: symbol keys are small interned
// integers whose hashing is far cheaper than a composite struct key, and
// ints and floats unify numerically so they share the numeric map.
type argIndex struct {
	byAtom    map[logic.Symbol][]int32
	byNum     map[float64][]int32
	unindexed []int32 // fact positions whose argument is not a constant
}

func (ix *argIndex) add(t logic.Term, pos int32) {
	switch t.Kind {
	case logic.Atom:
		if ix.byAtom == nil {
			ix.byAtom = make(map[logic.Symbol][]int32)
		}
		ix.byAtom[t.Sym] = append(ix.byAtom[t.Sym], pos)
	case logic.Int, logic.Float:
		if ix.byNum == nil {
			ix.byNum = make(map[float64][]int32)
		}
		ix.byNum[t.Num] = append(ix.byNum[t.Num], pos)
	default:
		ix.unindexed = append(ix.unindexed, pos)
	}
}

// bucket returns the candidate positions for a dereferenced goal argument
// and whether the argument was a constant usable for indexing.
func (ix *argIndex) bucket(t logic.Term) ([]int32, bool) {
	switch t.Kind {
	case logic.Atom:
		return ix.byAtom[t.Sym], true
	case logic.Int, logic.Float:
		return ix.byNum[t.Num], true
	}
	return nil, false
}

func (ix *argIndex) clone() argIndex {
	out := argIndex{unindexed: append([]int32(nil), ix.unindexed...)}
	if ix.byAtom != nil {
		out.byAtom = make(map[logic.Symbol][]int32, len(ix.byAtom))
		for k, v := range ix.byAtom {
			out.byAtom[k] = append([]int32(nil), v...)
		}
	}
	if ix.byNum != nil {
		out.byNum = make(map[float64][]int32, len(ix.byNum))
		for k, v := range ix.byNum {
			out.byNum[k] = append([]int32(nil), v...)
		}
	}
	return out
}

// storedClause is a clause with its variable count, the renaming width of
// each of its instances.
type storedClause struct {
	clause  logic.Clause
	numVars int
}

// pred holds all clauses for one predicate, facts indexed by their first and
// second argument constants.
type pred struct {
	facts []storedClause
	rules []storedClause
	arg1  argIndex
	arg2  argIndex
}

// predEntry pairs an arity with its clause store for by-symbol dispatch.
type predEntry struct {
	arity int32
	p     *pred
}

// KB is a knowledge base of definite clauses with first- and second-argument
// indexing on ground facts. Adding clauses is not goroutine-safe; reading
// (solving) is.
type KB struct {
	preds map[logic.PredKey]*pred
	// bySym resolves a goal's predicate without hashing: functor symbols are
	// small interned integers, so a slice lookup plus a short arity scan
	// replaces a map access on the hottest dispatch in the engine.
	bySym [][]predEntry
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
	return &KB{preds: make(map[logic.PredKey]*pred)}
}

func (kb *KB) register(key logic.PredKey, p *pred) {
	s := int(key.Sym)
	for s >= len(kb.bySym) {
		kb.bySym = append(kb.bySym, nil)
	}
	kb.bySym[s] = append(kb.bySym[s], predEntry{arity: int32(key.Arity), p: p})
}

// predFor resolves the clause store for a callable goal, or nil.
func (kb *KB) predFor(goal logic.Term) *pred {
	s := int(goal.Sym)
	if s < len(kb.bySym) {
		for _, e := range kb.bySym[s] {
			if int(e.arity) == len(goal.Args) {
				return e.p
			}
		}
	}
	return nil
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

// Add inserts a clause. Facts (empty body) join the indexed store; rules are
// kept in insertion order and always scanned.
func (kb *KB) Add(c logic.Clause) {
	kb.prog.Store(nil) // mutation invalidates the compiled program
	key := c.Head.Pred()
	p := kb.preds[key]
	if p == nil {
		p = &pred{}
		kb.preds[key] = p
		kb.register(key, p)
	}
	sc := storedClause{clause: c, numVars: c.NumVars()}
	kb.size++
	if !c.IsFact() {
		p.rules = append(p.rules, sc)
		return
	}
	pos := int32(len(p.facts))
	p.facts = append(p.facts, sc)
	if len(c.Head.Args) > 0 {
		p.arg1.add(c.Head.Args[0], pos)
	}
	if len(c.Head.Args) > 1 {
		p.arg2.add(c.Head.Args[1], pos)
	}
}

// AddFact inserts head as a fact.
func (kb *KB) AddFact(head logic.Term) { kb.Add(logic.Fact(head)) }

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

// Predicates returns the predicate keys in a deterministic order.
func (kb *KB) Predicates() []logic.PredKey {
	out := make([]logic.PredKey, 0, len(kb.preds))
	for k := range kb.preds {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sym != out[j].Sym {
			return out[i].Sym < out[j].Sym
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// Clone returns a deep-enough copy of the KB that may be extended
// independently (clause storage is shared copy-on-write style: slices are
// duplicated, clause structures are immutable and shared).
func (kb *KB) Clone() *KB {
	out := &KB{
		preds: make(map[logic.PredKey]*pred, len(kb.preds)),
		bySym: make([][]predEntry, len(kb.bySym)),
		size:  kb.size,
	}
	for k, p := range kb.preds {
		np := &pred{
			facts: append([]storedClause(nil), p.facts...),
			rules: append([]storedClause(nil), p.rules...),
			arg1:  p.arg1.clone(),
			arg2:  p.arg2.clone(),
		}
		out.preds[k] = np
		out.register(k, np)
	}
	return out
}

// lookup visits the candidate clauses for a goal whose variables are shifted
// by off under bs: a subset of facts selected by first- or second-argument
// index when the corresponding goal argument dereferences to a constant
// (whichever bucket is smaller), then all rules. The visit order is
// deterministic: indexed facts merge with the unindexed ones in insertion
// order to keep solution order stable. It is the oracle's own candidate
// selection: the seed engine (refMachine, differential_test.go) resolves every
// goal through it, and the compiled VM's candidate lists (compile.go) are
// precomputed to visit exactly its sequence.
func (kb *KB) lookup(bs *logic.Bindings, goal logic.Term, off int, visit func(sc *storedClause) bool) {
	p := kb.predFor(goal)
	if p == nil {
		return
	}
	if len(goal.Args) > 0 {
		if idx, un, ok := p.selectIndex(bs, goal, off); ok {
			p.scanMerged(idx, un, visit)
			return
		}
	}
	for i := range p.facts {
		if !visit(&p.facts[i]) {
			return
		}
	}
	p.scanRules(visit)
}

// selectIndex picks the cheapest applicable fact index for the goal: the
// first- or second-argument bucket with the fewest candidates (bucket plus
// the unindexed facts that must always be scanned alongside it).
func (p *pred) selectIndex(bs *logic.Bindings, goal logic.Term, off int) (idx, un []int32, ok bool) {
	best := 0
	a0, _ := bs.WalkOff(goal.Args[0], off)
	if i1, kok := p.arg1.bucket(a0); kok {
		idx, un, ok = i1, p.arg1.unindexed, true
		best = len(idx) + len(un)
	}
	// A second probe costs a map access; skip it when the first bucket is
	// already down to at most one candidate.
	if len(goal.Args) > 1 && (!ok || best > 1) {
		a1, _ := bs.WalkOff(goal.Args[1], off)
		if i2, kok := p.arg2.bucket(a1); kok {
			if u2 := p.arg2.unindexed; !ok || len(i2)+len(u2) < best {
				idx, un, ok = i2, u2, true
			}
		}
	}
	return idx, un, ok
}

// scanMerged visits the union of an index bucket and the matching unindexed
// positions in insertion order, then every rule.
func (p *pred) scanMerged(idx, un []int32, visit func(*storedClause) bool) {
	i, j := 0, 0
	for i < len(idx) || j < len(un) {
		var pos int32
		if j >= len(un) || (i < len(idx) && idx[i] < un[j]) {
			pos = idx[i]
			i++
		} else {
			pos = un[j]
			j++
		}
		if !visit(&p.facts[pos]) {
			return
		}
	}
	p.scanRules(visit)
}

func (p *pred) scanRules(visit func(*storedClause) bool) {
	for i := range p.rules {
		if !visit(&p.rules[i]) {
			return
		}
	}
}

// AllClauses returns every stored clause grouped by predicate in
// deterministic order (facts before rules within each predicate), for
// dataset export tooling.
func (kb *KB) AllClauses() []logic.Clause {
	var out []logic.Clause
	for _, key := range kb.Predicates() {
		p := kb.preds[key]
		for _, sc := range p.facts {
			out = append(out, sc.clause)
		}
		for _, sc := range p.rules {
			out = append(out, sc.clause)
		}
	}
	return out
}

// Footprint returns the number of indexed facts that mention the constant
// anywhere the fact indexes can see it (first or second argument position,
// summed over all predicates). For an ILP example's individual — the
// molecule of active(m12), the train of eastbound(t4) — this is the size
// of its immediate relational neighbourhood, which is what drives the SLD
// cost of saturating or covering the example: a cheap, engine-independent
// per-example cost proxy the elastic scheduler balances partitions by.
func (kb *KB) Footprint(c logic.Term) int {
	if c.Kind != logic.Atom && c.Kind != logic.Int && c.Kind != logic.Float {
		return 0
	}
	n := 0
	for _, p := range kb.preds {
		if b, ok := p.arg1.bucket(c); ok {
			n += len(b)
		}
		if b, ok := p.arg2.bucket(c); ok {
			n += len(b)
		}
	}
	return n
}
