package solve

import (
	"math"

	"repro/internal/logic"
)

// This file is the clause compiler: it translates a populated KB into the
// flat bytecode form the VM in vm.go executes. Compilation happens once per
// KB (lazily, on the first query of any machine over it) and the
// resulting program is immutable, so it is shared read-only by every machine
// over that KB — all pool checkouts and evaluator shards resolve against the
// same compiled clauses. KB.Add invalidates the cached program; the next
// query recompiles.
//
// The compilation scheme specializes exactly the decisions the seed engine
// (refMachine, differential_test.go) makes dynamically over KB.lookup, so the
// VM's observable behaviour — solution order, inference counts, budget
// cutoffs — is the seed engine's:
//
//   - Each head argument position becomes one instruction chosen by the
//     argument's shape (get-atom, get-number, get-variable, or a general
//     unify for repeated variables and structures), in argument order.
//   - A clause has that one stream and no other. The VM passes over the
//     position an index lookup already proved equal at run time, and when
//     a statically ground goal meets a ground fact it reads the same stream
//     as plain equality: no renaming, no trail, nothing to undo.
//   - The first-/second-argument fact indexes become switch instructions
//     that jump from a goal argument constant straight to a precomputed
//     candidate list: the index bucket merged with the never-indexed facts
//     in insertion order followed by the rules, exactly the sequence
//     KB.lookup (scanMerged + scanRules) visits at run time. Symbol keys
//     dispatch through a dense array (symbols are small interned integers)
//     instead of a hash map.
//   - Predicate dispatch likewise compiles to a direct symbol-indexed table
//     for the common case of one arity per functor symbol.
//   - Clause bodies become pre-built goal frames (literal + static
//     groundness) that are block-copied onto the goal stack with only the
//     renaming offset and depth patched in.

// op is a VM instruction opcode.
type op uint8

const (
	// opGetAtom matches a head argument that is a constant symbol: the goal
	// argument is dereferenced, then bound (if a variable) or compared. In
	// equality mode (a statically ground goal against a ground fact) it is
	// a plain comparison.
	opGetAtom op = iota
	// opGetNum matches a numeric head argument (Int and Float compare
	// numerically, as unification does), and compares in equality mode.
	opGetNum
	// opGetVar matches the first executed occurrence of a head variable.
	// Its fresh slot is guaranteed unbound, so the general unifier's walk of
	// the clause side is skipped: the goal argument is dereferenced and one
	// side is bound to the other.
	opGetVar
	// opUnify is the general case — repeated head variables and compound
	// arguments — and defers to the offset unifier (UnifyOff). In
	// equality mode its argument is a ground compound, compared as one.
	opUnify
)

// instr is one head-matching instruction. arg addresses the goal argument
// position; the remaining fields are the operands the opcode needs. term
// points at the head argument itself inside the stored clause (stable for
// the program's lifetime — KB mutation invalidates the program), so binding
// a goal variable stores the head argument's own term value, and the
// instruction stays at 32 bytes for cache-friendly dispatch.
type instr struct {
	term *logic.Term
	num  float64
	sym  logic.Symbol
	arg  int32
	v    int32 // head variable index (opGetVar)
	op   op
}

// compiledClause is the bytecode form of one stored clause. Its head stream
// serves every way the clause is selected: an index lookup proves a fact's
// argument equal only where the fact holds a constant, whose instruction
// binds no variable, so passing over it leaves every other instruction's
// first-occurrence status as compiled.
type compiledClause struct {
	src     *logic.Clause // the stored clause, for ProofStep.Clause
	numVars int
	head    []instr
	// frames holds the body goals as pre-built stack frames in push (reverse)
	// order with static groundness flags baked in; off and depth are patched
	// when the clause is resolved against.
	frames []goalFrame
}

// vmCand is one entry of a precomputed candidate list: a clause, its head
// stream (held here so the scan does not load the clause to find it), and
// skip, the position the index proved equal (-1 for unindexed entries and
// rules), whose instruction the VM passes over. ground marks a ground fact,
// whose stream a statically ground goal reads as equality.
type vmCand struct {
	cc     *compiledClause
	head   []instr
	skip   int8
	ground bool
}

// candList is a precomputed candidate sequence: selected facts in insertion
// order, then every rule. nFacts counts only the facts — it mirrors the
// candidate count KB.lookup's selectIndex compares buckets by (bucket
// length plus the always-scanned unindexed facts).
type candList struct {
	cands  []vmCand
	nFacts int
	// keys is the constant signature of the candidates' head arguments, one
	// column of len(cands) keys per argument position other than skip (the
	// position the index lookup already proved equal, -1 for none), columns
	// in position order: what Machine.runCands reads to tell, without
	// running it, that a candidate's head stream must fail. nil on lists
	// shorter than filterMinCands, wider than maxCachedArity or without a
	// single constant to compare.
	keys []uint32
	skip int8
}

// filterMinCands is the shortest candidate list that carries keys: below it
// setting the filter up costs more than the head streams it could skip.
const filterMinCands = 3

// A key is 0 (the wildcard: a variable or compound head argument, which only
// the head stream can decide), even for an atom, odd for a number. Equal
// constants have equal keys — Int 1 and Float 1.0, -0.0 and 0.0: head
// matching compares Num — and an atom's key never equals a number's, so two
// unequal non-wildcard keys prove the head stream would fail there. Two
// different numbers may share a key (31 bits of hash); that candidate is run
// and fails on its own.
func atomKey(s logic.Symbol) uint32 { return uint32(s)<<1 + 2 }

func numKey(f float64) uint32 {
	if f == 0 {
		f = 0 // -0.0 == 0.0, but their bits differ
	}
	return uint32(math.Float64bits(f)*0x9E3779B97F4A7C15>>33)<<1 | 1
}

// buildKeys derives the list's keys from the head streams its candidates
// will run (the instruction at the skipped position, where a stream has one,
// is not needed, see candList.keys).
func (l *candList) buildKeys() {
	n, skip := len(l.cands), int(l.skip)
	if n < filterMinCands {
		return
	}
	arity := len(l.cands[0].head)
	cols := arity
	if skip >= 0 {
		cols--
	}
	if arity > maxCachedArity || cols == 0 {
		return
	}
	keys := make([]uint32, cols*n)
	constant := false
	for i := range l.cands {
		for _, ins := range l.cands[i].head {
			col := int(ins.arg)
			if col == skip {
				continue
			}
			if skip >= 0 && col > skip {
				col--
			}
			switch ins.op {
			case opGetAtom:
				keys[col*n+i], constant = atomKey(ins.sym), true
			case opGetNum:
				keys[col*n+i], constant = numKey(ins.num), true
			}
		}
	}
	if constant {
		l.keys = keys
	}
}

// vmSwitch is the compiled form of an argIndex: constant → merged candidate
// list. Symbol keys resolve through a dense array indexed by the interned
// symbol id; numeric keys keep a map. miss is the list for constants with
// no bucket (the unindexed facts plus rules), matching KB.lookup's
// empty-bucket scan.
type vmSwitch struct {
	dense []*candList
	byNum map[float64]*candList
	miss  *candList
}

// lookup mirrors argIndex.bucket: a constant goal argument always selects
// some list (possibly the miss list); anything else reports no index.
func (sw *vmSwitch) lookup(t *logic.Term) (*candList, bool) {
	switch t.Kind {
	case logic.Atom:
		if s := int(t.Sym); s < len(sw.dense) {
			if l := sw.dense[s]; l != nil {
				return l, true
			}
		}
		return sw.miss, true
	case logic.Int, logic.Float:
		if l, ok := sw.byNum[t.Num]; ok {
			return l, true
		}
		return sw.miss, true
	}
	return nil, false
}

// compiledPred holds the compiled clauses of one predicate: the full
// candidate list and the two argument switches.
type compiledPred struct {
	arity int32
	all   *candList
	arg1  vmSwitch
	arg2  vmSwitch
	// memo marks a predicate whose ground calls the memo may record and
	// replay (memo.go): it has a rule and 1–memoMaxArity arguments. id
	// numbers the program's predicates, for the memo's hash.
	memo bool
	id   int32
}

// program is an immutable compiled KB. It is built once per KB and shared
// read-only across machines; it holds no mutable state.
type program struct {
	// direct is the fast dispatch path: symbol id → compiled predicate, for
	// symbols used at exactly one arity (the overwhelmingly common case).
	direct []*compiledPred
	// bySym is the fallback for symbols overloaded at several arities.
	bySym [][]progEntry
}

// progEntry pairs an arity with its compiled predicate for the fallback
// dispatch, mirroring KB.predEntry.
type progEntry struct {
	arity int32
	cp    *compiledPred
}

// predFor resolves the compiled predicate for a callable goal, or nil.
func (pr *program) predFor(goal logic.Term) *compiledPred {
	s := int(goal.Sym)
	if s < len(pr.direct) {
		if cp := pr.direct[s]; cp != nil && int(cp.arity) == len(goal.Args) {
			return cp
		}
	}
	if s < len(pr.bySym) {
		for _, e := range pr.bySym[s] {
			if int(e.arity) == len(goal.Args) {
				return e.cp
			}
		}
	}
	return nil
}

// unknownPred is the compiled predicate for body goals that reference no KB
// predicate: empty candidate lists, so resolution exhausts immediately with
// no charges — KB.lookup visits nothing for an unknown predicate either.
var unknownPred = &compiledPred{
	all:  &candList{},
	arg1: vmSwitch{miss: &candList{}},
	arg2: vmSwitch{miss: &candList{}},
}

// compiler accumulates every compiled clause so the second compilation phase
// can patch cross-predicate references into the body frames.
type compiler struct {
	clauses []*compiledClause
	preds   int32
}

// compileKB translates every predicate of kb into compiled form. It runs in
// two phases: first every clause is compiled, then each body literal is
// statically resolved to its compiled predicate (frame.cp), letting the VM's
// step skip the negation/variable/builtin dispatch whose outcome is already
// known at compile time.
func compileKB(kb *KB) *program {
	n := len(kb.bySym)
	pr := &program{direct: make([]*compiledPred, n), bySym: make([][]progEntry, n)}
	var c compiler
	for s, entries := range kb.bySym {
		if len(entries) == 1 {
			pr.direct[s] = compilePred(&c, entries[0].p, entries[0].arity)
			continue
		}
		for _, e := range entries {
			pr.bySym[s] = append(pr.bySym[s], progEntry{arity: e.arity, cp: compilePred(&c, e.p, e.arity)})
		}
	}
	for _, cc := range c.clauses {
		for i := range cc.frames {
			cc.frames[i].cp = pr.staticPred(cc.frames[i].lit)
		}
	}
	return pr
}

// staticPred is the compile-time dispatch of one goal literal, for clause
// bodies and compiled queries alike: a positive, callable, non-builtin goal
// resolves to its compiled predicate (unknownPred when the KB has none);
// everything else returns nil and keeps step's dynamic checks.
func (pr *program) staticPred(lit logic.Literal) *compiledPred {
	a := lit.Atom
	if lit.Neg || (a.Kind != logic.Atom && a.Kind != logic.Compound) || builtinFor(a) != nil {
		return nil
	}
	if cp := pr.predFor(a); cp != nil {
		return cp
	}
	return unknownPred
}

func compilePred(c *compiler, p *pred, arity int32) *compiledPred {
	facts := make([]*compiledClause, len(p.facts))
	for i := range p.facts {
		facts[i] = compileClause(c, &p.facts[i])
	}
	rules := make([]vmCand, len(p.rules))
	for i := range p.rules {
		cc := compileClause(c, &p.rules[i])
		rules[i] = vmCand{cc: cc, head: cc.head, skip: -1}
	}
	cp := &compiledPred{arity: arity, memo: len(rules) > 0 && arity >= 1 && arity <= memoMaxArity, id: c.preds}
	c.preds++
	var allIdx []int32
	if len(facts) > 0 {
		allIdx = make([]int32, len(facts))
		for i := range allIdx {
			allIdx[i] = int32(i)
		}
	}
	cp.all = mergeList(facts, rules, allIdx, nil, -1)
	cp.arg1 = compileSwitch(facts, rules, &p.arg1, 0)
	cp.arg2 = compileSwitch(facts, rules, &p.arg2, 1)
	return cp
}

// compileSwitch precomputes, for every constant key of ix, the merged
// bucket-plus-unindexed candidate sequence scanMerged would produce
// (followed by the rules). Symbol keys become a dense jump table.
func compileSwitch(facts []*compiledClause, rules []vmCand, ix *argIndex, skip int) vmSwitch {
	sw := vmSwitch{miss: mergeList(facts, rules, nil, ix.unindexed, skip)}
	if len(ix.byAtom) > 0 {
		maxSym := logic.Symbol(0)
		for k := range ix.byAtom {
			if k > maxSym {
				maxSym = k
			}
		}
		sw.dense = make([]*candList, int(maxSym)+1)
		for k, bucket := range ix.byAtom {
			sw.dense[k] = mergeList(facts, rules, bucket, ix.unindexed, skip)
		}
	}
	if len(ix.byNum) > 0 {
		sw.byNum = make(map[float64]*candList, len(ix.byNum))
		for k, bucket := range ix.byNum {
			sw.byNum[k] = mergeList(facts, rules, bucket, ix.unindexed, skip)
		}
	}
	return sw
}

// mergeList interleaves an index bucket with the unindexed facts in
// insertion order, then appends the rules. Bucket entries skip the indexed
// argument (the index proved it equal); unindexed entries and rules must
// match in full.
func mergeList(facts []*compiledClause, rules []vmCand, idx, un []int32, skip int) *candList {
	l := &candList{nFacts: len(idx) + len(un), skip: int8(skip)}
	if l.nFacts+len(rules) == 0 {
		return l
	}
	l.cands = make([]vmCand, 0, l.nFacts+len(rules))
	i, j := 0, 0
	for i < len(idx) || j < len(un) {
		if j >= len(un) || (i < len(idx) && idx[i] < un[j]) {
			l.cands = append(l.cands, candFor(facts[idx[i]], skip))
			i++
		} else {
			l.cands = append(l.cands, candFor(facts[un[j]], -1))
			j++
		}
	}
	l.cands = append(l.cands, rules...)
	l.buildKeys()
	return l
}

// candFor is a fact's entry in a list selected with skip. A fact without
// variables is ground.
func candFor(cc *compiledClause, skip int) vmCand {
	return vmCand{cc: cc, head: cc.head, skip: int8(skip), ground: cc.numVars == 0}
}

func compileClause(c *compiler, sc *storedClause) *compiledClause {
	cc := &compiledClause{src: &sc.clause, numVars: sc.numVars}
	c.clauses = append(c.clauses, cc)
	body := sc.clause.Body
	if len(body) > 0 {
		cc.frames = make([]goalFrame, 0, len(body))
		for i := len(body) - 1; i >= 0; i-- {
			cc.frames = append(cc.frames, goalFrame{lit: body[i], ground: body[i].Atom.IsGround()})
		}
	}
	cc.head = compileHead(sc)
	return cc
}

// compileHead builds the head-matching stream of a stored clause.
func compileHead(sc *storedClause) []instr {
	head := &sc.clause.Head
	if len(head.Args) == 0 {
		return nil
	}
	var seen []bool
	if sc.numVars > 0 {
		seen = make([]bool, sc.numVars)
	}
	return appendHead(make([]instr, 0, len(head.Args)), head, seen)
}

// appendHead appends one instruction per head argument, in argument order.
// A head variable compiles to opGetVar only at its first occurrence —
// counting occurrences inside earlier compound arguments, since unifying
// those may already have bound its slot — and to the general unifier
// afterwards. seen is all-false scratch indexed by variable, at least as
// long as the clause has variables.
func appendHead(dst []instr, head *logic.Term, seen []bool) []instr {
	for i := range head.Args {
		a := &head.Args[i]
		ins := instr{arg: int32(i), term: a}
		switch a.Kind {
		case logic.Atom:
			ins.op, ins.sym = opGetAtom, a.Sym
		case logic.Int, logic.Float:
			ins.op, ins.num = opGetNum, a.Num
		case logic.Var:
			if seen[a.Sym] {
				ins.op = opUnify
			} else {
				ins.op, ins.v = opGetVar, int32(a.Sym)
			}
		default:
			ins.op = opUnify
		}
		markVars(*a, seen)
		dst = append(dst, ins)
	}
	return dst
}

func markVars(t logic.Term, seen []bool) {
	switch t.Kind {
	case logic.Var:
		seen[t.Sym] = true
	case logic.Compound:
		for i := range t.Args {
			markVars(t.Args[i], seen)
		}
	}
}
