package solve

import (
	"math"
	"slices"

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
// (refMachine, differential_test.go) makes dynamically over its own argument
// indexes, so the VM's observable behaviour — solution order, inference
// counts, budget cutoffs — is the seed engine's:
//
//   - Each head argument position becomes one instruction chosen by the
//     argument's shape (get-atom, get-number, get-variable, or a general
//     unify for repeated variables and structures), in argument order.
//   - A clause has that one stream and no other. The VM passes over the
//     position an index lookup already proved equal at run time, and when
//     a statically ground goal meets a ground fact it reads the same stream
//     as plain equality: no renaming, no trail, nothing to undo.
//   - The facts are indexed by their first and second argument here and
//     nowhere else: each position becomes a switch that jumps from a goal
//     argument constant straight to a precomputed candidate list, the facts
//     holding that constant merged with the facts holding none (a variable
//     or a compound) in insertion order, followed by the rules — the
//     sequence the seed engine's index scan visits at run time. Symbol keys
//     dispatch through a dense array (symbols are small interned integers)
//     instead of a hash map.
//   - Predicate dispatch likewise goes through a symbol-indexed table
//     (symTab), the KB's own shape with compiled predicates for values.
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
// order, then every rule. nFacts counts only the facts — the candidate count
// index selection compares the two switches' lists by (the facts holding the
// constant plus the always-scanned unindexed facts).
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

// keyCount is how many keys a list of n candidates of the given arity,
// selected with skip, carries if any of its candidates holds a constant.
func keyCount(n, arity, skip int) int {
	cols := arity
	if skip >= 0 {
		cols--
	}
	if n < filterMinCands || arity > maxCachedArity || cols <= 0 {
		return 0
	}
	return cols * n
}

// buildKeys derives the list's keys from the head streams its candidates
// will run (the instruction at the skipped position, where a stream has one,
// is not needed, see candList.keys). The keys take the front of arena, which
// holds at least keyCount of them, all zero; a list without a constant to
// compare leaves it untouched.
func (l *candList) buildKeys(arena *[]uint32) {
	n, skip := len(l.cands), int(l.skip)
	if n == 0 {
		return
	}
	size := keyCount(n, len(l.cands[0].head), skip)
	if size == 0 {
		return
	}
	keys := (*arena)[:size:size]
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
		l.keys, *arena = keys, (*arena)[size:]
	}
}

// vmSwitch is the index of one argument position: constant → merged
// candidate list. Symbol keys resolve through a dense array indexed by the
// interned symbol id; numeric keys keep a map. miss is the list for
// constants no fact holds there (the unindexed facts plus rules).
type vmSwitch struct {
	dense []*candList
	byNum map[float64]*candList
	miss  *candList
}

// lookup selects the list for a dereferenced goal argument: a constant
// always selects some list (possibly the miss list, as for a symbol outside
// the dense table); anything else reports no index.
func (sw *vmSwitch) lookup(t *logic.Term) (*candList, bool) {
	switch t.Kind {
	case logic.Atom:
		if s := int(t.Sym); s >= 0 && s < len(sw.dense) {
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
	preds symTab[*compiledPred]
}

// predFor resolves the compiled predicate for a callable goal, or nil.
func (pr *program) predFor(goal logic.Term) *compiledPred {
	return pr.preds.get(goal.Sym, len(goal.Args))
}

// unknownPred is the compiled predicate for body goals that reference no KB
// predicate: empty candidate lists, so resolution exhausts immediately with
// no charges — the seed engine visits nothing for an unknown predicate
// either.
var unknownPred = &compiledPred{
	all:  &candList{},
	arg1: vmSwitch{miss: &candList{}},
	arg2: vmSwitch{miss: &candList{}},
}

// compiler lays the program out in a few arenas, each allocated at its
// exact size before it is filled: one array each of compiled clauses, head
// instructions, body frames and compiled predicates for the whole KB, and
// for every candidate-list set (a predicate's full list, each of its
// switches) one array of lists, one of candidates and one of keys. The rest
// is scratch, reused from predicate to predicate and switch to switch.
type compiler struct {
	clauses []compiledClause // the clause arena's unused rest
	code    []instr          // the head-instruction arena's unused rest
	frames  []goalFrame      // the body-frame arena's unused rest
	preds   []compiledPred   // the predicate arena
	npreds  int32

	cands []vmCand // the current list set's candidate arena, unused rest
	keys  []uint32 // the current list set's key arena, unused rest

	rules  []vmCand          // the current predicate's rules
	seen   []bool            // appendHead's first-occurrence scratch
	atomAt []int32           // by symbol id: a switch key's fact count, then its end in at
	numAt  map[float64]int32 // the same for numeric keys
	atoms  []logic.Symbol    // the switch's symbol keys, first seen first
	nums   []float64         // the switch's numeric keys, first seen first
	at     []int32           // fact positions, grouped by key in key order
	un     []int32           // positions of the facts holding no constant
}

// compileKB translates every predicate of kb into compiled form. A first
// pass sizes the program-wide arenas; then it runs in two phases: first
// every clause is compiled, then each body literal is
// statically resolved to its compiled predicate (frame.cp), letting the VM's
// step skip the negation/variable/builtin dispatch whose outcome is already
// known at compile time.
func compileKB(kb *KB) *program {
	c := compiler{numAt: make(map[float64]int32)}
	var ncode, nframes int
	for _, p := range kb.preds.all() {
		for _, cs := range [][]storedClause{p.facts, p.rules} {
			for i := range cs {
				ncode += len(cs[i].clause.Head.Args)
				nframes += len(cs[i].clause.Body)
			}
		}
	}
	frames := make([]goalFrame, nframes)
	c.clauses, c.code, c.frames = make([]compiledClause, kb.size), make([]instr, ncode), frames
	c.preds = make([]compiledPred, kb.preds.len())
	pr := &program{preds: mapTab(&kb.preds, func(k logic.PredKey, p *pred) *compiledPred {
		return c.compilePred(p, int32(k.Arity))
	})}
	for i := range frames {
		frames[i].cp = pr.staticPred(frames[i].lit)
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

// compilePred compiles one predicate's clauses, facts first, into the
// clause arena, then builds its full candidate list and its two switches.
func (c *compiler) compilePred(p *pred, arity int32) *compiledPred {
	facts := c.clauses[:len(p.facts)]
	for i := range p.facts {
		c.compileClause(&facts[i], &p.facts[i])
	}
	c.clauses = c.clauses[len(p.facts):]
	c.rules = c.rules[:0]
	for i := range p.rules {
		cc := &c.clauses[i]
		c.compileClause(cc, &p.rules[i])
		c.rules = append(c.rules, vmCand{cc: cc, head: cc.head, skip: -1})
	}
	c.clauses = c.clauses[len(p.rules):]
	cp := &c.preds[c.npreds]
	*cp = compiledPred{arity: arity, memo: len(p.rules) > 0 && arity >= 1 && arity <= memoMaxArity, id: c.npreds}
	c.npreds++
	nall := len(facts) + len(c.rules)
	c.cands = make([]vmCand, nall)
	c.keys = make([]uint32, keyCount(nall, int(arity), -1))
	c.at = c.at[:0]
	for i := range facts {
		c.at = append(c.at, int32(i))
	}
	cp.all = &candList{}
	c.mergeList(cp.all, facts, c.at, nil, -1)
	cp.arg1 = c.compileSwitch(facts, p.facts, arity, 0)
	cp.arg2 = c.compileSwitch(facts, p.facts, arity, 1)
	return cp
}

// compileSwitch indexes the facts src by their argument at pos: for every
// constant there, the facts holding it (which pass over pos, proved equal)
// merged in insertion order with the unindexed facts, then the rules. It
// counts the facts per key, lays their positions out in one array by prefix
// sums — each key's run in insertion order — sizes the switch's arenas from
// the counts and merges every run. Int 1 and Float 1.0 are one numeric key,
// and so are 0.0 and -0.0; a NaN argument equals no goal constant, so its
// fact is in no list of the switch.
func (c *compiler) compileSwitch(facts []compiledClause, src []storedClause, arity int32, pos int) vmSwitch {
	if pos >= int(arity) {
		src = nil
	}
	c.atoms, c.nums, c.un = c.atoms[:0], c.nums[:0], c.un[:0]
	n := 0
	for i := range src {
		switch a := &src[i].clause.Head.Args[pos]; a.Kind {
		case logic.Atom:
			if s := int(a.Sym); s >= len(c.atomAt) {
				c.atomAt = append(c.atomAt, make([]int32, s+1-len(c.atomAt))...)
			}
			if c.atomAt[a.Sym] == 0 {
				c.atoms = append(c.atoms, a.Sym)
			}
			c.atomAt[a.Sym]++
		case logic.Int, logic.Float:
			if math.IsNaN(a.Num) {
				continue
			}
			k := c.numAt[a.Num]
			if k == 0 {
				c.nums = append(c.nums, a.Num)
			}
			c.numAt[a.Num] = k + 1
		default:
			c.un = append(c.un, int32(i))
			continue
		}
		n++
	}
	// Prefix sums: each key's count becomes the start of its run. The arenas
	// hold the miss list (the unindexed facts and the rules) and, for every
	// key, its run, the unindexed facts and the rules.
	shared := len(c.un) + len(c.rules)
	ncands, nkeys := shared, keyCount(shared, int(arity), pos)
	off, maxSym := int32(0), logic.Symbol(0)
	for _, s := range c.atoms {
		ncands += int(c.atomAt[s]) + shared
		nkeys += keyCount(int(c.atomAt[s])+shared, int(arity), pos)
		off, c.atomAt[s] = off+c.atomAt[s], off
		maxSym = max(maxSym, s)
	}
	for _, f := range c.nums {
		ncands += int(c.numAt[f]) + shared
		nkeys += keyCount(int(c.numAt[f])+shared, int(arity), pos)
		off, c.numAt[f] = off+c.numAt[f], off
	}
	// Fill: each start advances to its run's end.
	c.at = slices.Grow(c.at[:0], n)[:n]
	for i := range src {
		switch a := &src[i].clause.Head.Args[pos]; a.Kind {
		case logic.Atom:
			c.at[c.atomAt[a.Sym]] = int32(i)
			c.atomAt[a.Sym]++
		case logic.Int, logic.Float:
			if k, ok := c.numAt[a.Num]; ok {
				c.at[k] = int32(i)
				c.numAt[a.Num] = k + 1
			}
		}
	}
	lists := make([]candList, 1+len(c.atoms)+len(c.nums))
	c.cands, c.keys = make([]vmCand, ncands), make([]uint32, nkeys)
	sw := vmSwitch{miss: &lists[0]}
	c.mergeList(sw.miss, facts, nil, c.un, pos)
	lists = lists[1:]
	start := int32(0)
	if len(c.atoms) > 0 {
		sw.dense = make([]*candList, int(maxSym)+1)
		for i, s := range c.atoms {
			end := c.atomAt[s]
			sw.dense[s] = &lists[i]
			c.mergeList(&lists[i], facts, c.at[start:end], c.un, pos)
			start, c.atomAt[s] = end, 0
		}
		lists = lists[len(c.atoms):]
	}
	if len(c.nums) > 0 {
		sw.byNum = make(map[float64]*candList, len(c.nums))
		for i, f := range c.nums {
			end := c.numAt[f]
			sw.byNum[f] = &lists[i]
			c.mergeList(&lists[i], facts, c.at[start:end], c.un, pos)
			start = end
		}
		clear(c.numAt)
	}
	return sw
}

// mergeList fills l: an index bucket interleaved with the unindexed facts in
// insertion order, then the rules. Bucket entries skip the indexed argument
// (the index proved it equal); unindexed entries and rules must match in
// full. The candidates and keys take the front of the list set's arenas.
func (c *compiler) mergeList(l *candList, facts []compiledClause, idx, un []int32, skip int) {
	l.nFacts, l.skip = len(idx)+len(un), int8(skip)
	n := l.nFacts + len(c.rules)
	if n == 0 {
		return
	}
	l.cands, c.cands = c.cands[:0:n], c.cands[n:]
	i, j := 0, 0
	for i < len(idx) || j < len(un) {
		if j >= len(un) || (i < len(idx) && idx[i] < un[j]) {
			l.cands = append(l.cands, candFor(&facts[idx[i]], skip))
			i++
		} else {
			l.cands = append(l.cands, candFor(&facts[un[j]], -1))
			j++
		}
	}
	l.cands = append(l.cands, c.rules...)
	l.buildKeys(&c.keys)
}

// candFor is a fact's entry in a list selected with skip. A fact without
// variables is ground.
func candFor(cc *compiledClause, skip int) vmCand {
	return vmCand{cc: cc, head: cc.head, skip: int8(skip), ground: cc.numVars == 0}
}

// compileClause compiles sc into cc, its head stream and body frames taking
// the front of their arenas.
func (c *compiler) compileClause(cc *compiledClause, sc *storedClause) {
	*cc = compiledClause{src: &sc.clause, numVars: sc.numVars}
	if body := sc.clause.Body; len(body) > 0 {
		cc.frames, c.frames = c.frames[:0:len(body)], c.frames[len(body):]
		for i := len(body) - 1; i >= 0; i-- {
			cc.frames = append(cc.frames, goalFrame{lit: body[i], ground: body[i].Atom.IsGround()})
		}
	}
	head := &sc.clause.Head
	if len(head.Args) == 0 {
		return
	}
	if cap(c.seen) < sc.numVars {
		c.seen = make([]bool, sc.numVars)
	}
	seen := c.seen[:sc.numVars]
	clear(seen)
	cc.head, c.code = appendHead(c.code[:0:len(head.Args)], head, seen), c.code[len(head.Args):]
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
