package solve

import (
	"repro/internal/logic"
)

// This file is the bytecode VM, the engine's one prover: the dispatch loop
// that resolves a goal against the compiled program from compile.go. What it
// must reproduce is the seed engine's (refMachine, differential_test.go) —
// the candidates its argument indexes select, in their order, one charge()
// per candidate tried and per goal step, the same budget cutoffs and the
// same solutions in the same order — with the per-candidate decisions
// (index merge, head shape dispatch, groundness probing) moved to compile
// time.
//
// Beyond compiled dispatch, the VM's data-movement win is the goal-argument
// walk cache: within one resolution step every candidate sees the goal's
// arguments under the same bindings (each candidate's bindings are undone
// before the next is tried), so arguments can be dereferenced once per step
// instead of once per argument per candidate. Because existence queries
// usually stop at the first matching candidate, the cache is filled lazily —
// the first candidate walks live, and the cache is built only when a second
// candidate is actually run.
//
// The one place the VM executes less than it charges for is the candidate
// filter, a fast path on only while Machine.memoOn: on a list long enough to
// carry constant keys (candList.keys), a candidate whose head constants
// disagree with the goal's is charged like any other but its head stream —
// which could only fail and undo itself — is not run (runCands,
// Machine.chargeN). Up to the first budget event the charge sequence is the
// seed engine's; past one, the query is proved again in exact mode.

// SetNoVM once chose the tree-walking interpreter, which is gone: the compiled
// VM is the only prover. It survives only because bench/ passes it
// search.Settings.NoVM, which is always false, until ROADMAP 3(a) deletes both
// names. false changes nothing; true panics.
func (m *Machine) SetNoVM(no bool) {
	if no {
		panic("solve: SetNoVM(true): the tree-walking interpreter is gone, the compiled VM is the only prover (ROADMAP 3(a) deletes SetNoVM)")
	}
}

// walked is one cached goal-argument dereference: the walked term plus the
// renaming offset still pending for its subterms (see Bindings.WalkOff).
type walked struct {
	t   logic.Term
	off int
}

// maxCachedArity bounds the per-step walk cache; goals with more arguments
// (none exist in the bundled datasets) fall back to live walks.
const maxCachedArity = 8

// stepState is the per-resolution-step walk cache and candidate filter.
// cache points into the machine's walk arena (Machine.wbuf), filt into its
// filter arena (Machine.fbuf): nested resolution steps each carve their own
// window, so the state cannot live as a fixed machine field, and the arenas
// avoid zeroing a fixed-size buffer on every step.
type stepState struct {
	cache  []walked
	filt   []colKey // empty: every candidate runs
	filled int8     // prefix of cache already walked (by index selection)
	mode   uint8    // 0 = cache not yet attempted, 1 = active, 2 = disabled
}

// colKey is one active column of a step's candidate filter: the goal
// argument at the column's position dereferenced to the constant with this
// key, so a candidate whose key there (candList.keys[base+i]) is neither
// equal nor the wildcard has a head stream that must fail.
type colKey struct {
	base int32
	key  uint32
}

// filterFor sets up the step's candidate filter over a keyed list: it walks
// the goal's arguments once, through pointers, and keeps the columns whose
// argument is a constant now. Such an argument stays that constant for the
// whole step — bindings only ever add — whereas one that is still a variable
// (twice the same one, even) may be bound by any candidate and is left to
// the head streams.
func (m *Machine) filterFor(st *stepState, l *candList, goal logic.Term, off int) {
	need := m.ftop + len(goal.Args)
	if cap(m.fbuf) < need {
		// Outer steps keep their windows of the old array.
		m.fbuf = make([]colKey, need+4*maxCachedArity)
	}
	filt := m.fbuf[m.ftop:m.ftop:need]
	var scratch logic.Term
	n, base := int32(len(l.cands)), int32(0)
	for p := range goal.Args {
		if p == int(l.skip) {
			continue
		}
		switch t, _ := m.bs.WalkRef(&goal.Args[p], off, &scratch); t.Kind {
		case logic.Atom:
			filt = append(filt, colKey{base: base, key: atomKey(t.Sym)})
		case logic.Int, logic.Float:
			filt = append(filt, colKey{base: base, key: numKey(t.Num)})
		}
		base += n
	}
	m.ftop += len(filt)
	st.filt = filt
}

// fillWalkCache completes the walk cache (arguments [filled, n) — the index
// selection already walked a prefix) and reports whether it may substitute
// for per-candidate walks. It runs between candidates, when the bindings
// are back to their step-entry state, so the entries equal fresh walks. A
// cached entry can go stale mid-candidate only if it is an unbound variable
// that an earlier instruction of the same candidate binds; instructions
// only bind fresh clause variables (≥ the current renaming base, never a
// cached variable), variables inside the arguments they operate on, and
// their own argument's walked variable. So the cache is safe unless some
// variable appears as the walked result of one argument and also occurs in
// another argument's entry — conservatively: two entries walk to the same
// variable, or a variable entry coexists with a non-ground compound entry.
func (m *Machine) fillWalkCache(st *stepState, goal logic.Term, off int) bool {
	cache := st.cache
	n := len(cache)
	for i := int(st.filled); i < n; i++ {
		t, o := m.bs.WalkOff(goal.Args[i], off)
		cache[i] = walked{t: t, off: o}
	}
	st.filled = int8(n)
	nVars := 0
	for i := range cache {
		switch cache[i].t.Kind {
		case logic.Var:
			nVars++
		case logic.Compound:
			if !cache[i].t.IsGround() {
				return false
			}
		}
	}
	if nVars < 2 {
		return true
	}
	for i := range cache {
		if cache[i].t.Kind != logic.Var {
			continue
		}
		for j := i + 1; j < n; j++ {
			if cache[j].t.Kind == logic.Var && cache[j].t.Sym == cache[i].t.Sym {
				return false
			}
		}
	}
	return true
}

// resolveVM resolves goal against its compiled predicate (statically patched
// into the goal frame for compiled body literals, dynamically dispatched via
// program.predFor otherwise): select the candidate list the seed engine's
// index selection would scan, then per candidate charge the budget, match
// the head (equality stream for ground-fact/ground-goal pairs, head stream
// otherwise), push the precompiled body frames and recurse.
func (m *Machine) resolveVM(cp *compiledPred, atom logic.Term, off int, fr goalFrame, k func() bool) bool {
	var st stepState
	list := cp.all
	n := len(atom.Args)
	if n == 0 {
		st.mode = 2
		return m.runCands(list, atom, off, fr, &st, k)
	}
	// Index selection, the seed engine's over the compiled switches: prefer
	// the list with fewer facts of the two applicable switches, probing the
	// second argument only when the first didn't already reduce to at most
	// one fact; arg1 wins ties. The argument walks seed the walk cache.
	var s0, s1 logic.Term
	w0, w0o := m.bs.WalkRef(&atom.Args[0], off, &s0)
	filled := 1
	var w1 *logic.Term
	var w1o int
	var best *candList
	ok := false
	if l, kok := cp.arg1.lookup(w0); kok {
		best, ok = l, true
	}
	if n > 1 && (!ok || best.nFacts > 1) {
		w1, w1o = m.bs.WalkRef(&atom.Args[1], off, &s1)
		filled = 2
		if l2, kok := cp.arg2.lookup(w1); kok {
			if !ok || l2.nFacts < best.nFacts {
				best, ok = l2, true
			}
		}
	}
	if ok {
		list = best
	}
	if n > maxCachedArity {
		st.mode = 2
		return m.runCands(list, atom, off, fr, &st, k)
	}
	wsave := m.wtop
	need := wsave + n
	if cap(m.wbuf) < need {
		m.wbuf = make([]walked, need+4*maxCachedArity)
	}
	cache := m.wbuf[wsave:need:need]
	m.wtop = need
	cache[0] = walked{t: *w0, off: w0o}
	if filled == 2 {
		cache[1] = walked{t: *w1, off: w1o}
	}
	st.cache = cache
	st.filled = int8(filled)
	fsave := m.ftop
	if m.memoOn && list.keys != nil && !fr.ground {
		m.filterFor(&st, list, atom, off)
	}
	r := m.runCands(list, atom, off, fr, &st, k)
	m.wtop, m.ftop = wsave, fsave
	return r
}

// runCands scans a candidate list (facts in scan order, then rules),
// returning the value the resolution step reports to solve: false only when
// the continuation asked to stop the whole enumeration.
//
// A candidate the step's filter rejects is not run: its head stream would
// fail and leave no trace (nothing stays bound, nextVar is restored), so all
// that running it does that anyone can observe is charge(). Those
// charges are owed in candidate order, and chargeN pays a run of them at
// once right before the next candidate that does run — which is where the
// next observable thing happens — and at the end of the list; one that
// would cross the budget flags it, and the query is proved again exactly.
//
// While a proof is recorded, a matched candidate's record (proof.go) is on
// m.proof for as long as the search stays below it.
func (m *Machine) runCands(l *candList, atom logic.Term, off int, fr goalFrame, st *stepState, k func() bool) bool {
	restTop, proofTop := len(m.stack), len(m.proof)
	cands, keys, filt := l.cands, l.keys, st.filt
	skipped := int64(0)
	first := true // no head stream has run in this step yet
scan:
	for i := range cands {
		for _, f := range filt {
			if key := keys[int(f.base)+i]; key != f.key && key != 0 {
				skipped++
				continue scan
			}
		}
		if skipped > 0 {
			if !m.chargeN(skipped, &m.work.filtered) {
				return true
			}
			skipped = 0
		}
		c := &cands[i]
		if !m.charge() {
			return true // budget: abandon this branch
		}
		if fr.ground && c.ground {
			// Ground fact, ground goal: plain equality — no renaming, no
			// trail, nothing to undo.
			if m.runEq(c.head, int32(c.skip), atom, off) {
				if m.proving {
					m.noteClause(atom, off, c.cc.src, fr.depth)
				}
				if !m.solve(k) {
					return false
				}
				m.proof = m.proof[:proofTop]
			}
			continue
		}
		base := m.nextVar
		m.nextVar += c.cc.numVars
		mark := m.bs.Mark()
		var matched bool
		if st.mode == 1 {
			matched = m.runHeadCached(c.head, int32(c.skip), base, st.cache)
		} else if st.mode == 0 && !first {
			// Second candidate to run: the walk cache will pay for itself
			// now. The bindings are back to their step-entry state here, so
			// the cache fills to exactly the walks the first candidate saw.
			if m.fillWalkCache(st, atom, off) {
				st.mode = 1
				matched = m.runHeadCached(c.head, int32(c.skip), base, st.cache)
			} else {
				st.mode = 2
				matched = m.runHead(c.head, int32(c.skip), atom, off, base, nil, 0)
			}
		} else {
			// First candidate to run (or cache disabled): live walks. The
			// index-selection walks are still untouched for the first
			// candidate, so its first instruction can reuse them.
			var pf int32
			if first {
				pf = int32(st.filled)
			}
			matched = m.runHead(c.head, int32(c.skip), atom, off, base, st.cache, pf)
		}
		first = false
		if matched {
			m.pushFrames(c.cc.frames, int32(base), fr.depth+1)
			if m.proving {
				m.noteClause(atom, off, c.cc.src, fr.depth)
			}
			if !m.solve(k) {
				m.stack = m.stack[:restTop]
				m.bs.Undo(mark)
				m.nextVar = base
				return false
			}
			m.stack = m.stack[:restTop]
			m.proof = m.proof[:proofTop]
		}
		m.bs.Undo(mark)
		m.nextVar = base
	}
	if skipped > 0 {
		m.chargeN(skipped, &m.work.filtered)
	}
	return true
}

// runHeadCached executes a head-matching stream against the pre-walked goal
// arguments, passing over the instruction at position skip. base is the
// fresh-variable renaming offset of the clause instance.
func (m *Machine) runHeadCached(code []instr, skip int32, base int, cache []walked) bool {
	bs := m.bs
	for i := range code {
		ins := &code[i]
		if ins.arg == skip {
			continue
		}
		w := &cache[ins.arg]
		switch ins.op {
		case opGetAtom:
			switch w.t.Kind {
			case logic.Var:
				bs.Bind(int(w.t.Sym), *ins.term)
			case logic.Atom:
				if w.t.Sym != ins.sym {
					return false
				}
			default:
				return false
			}
		case opGetNum:
			switch {
			case w.t.Kind == logic.Var:
				bs.Bind(int(w.t.Sym), *ins.term)
			case w.t.IsNumber():
				if w.t.Num != ins.num {
					return false
				}
			default:
				return false
			}
		case opGetVar:
			// First executed occurrence: slot v is fresh and unbound, so
			// the clause side needs no walk. Binding direction matches the
			// general unifier: an unbound goal argument binds to the fresh
			// variable; anything else binds the fresh slot to the goal
			// term, materializing the goal-side offset only for non-ground
			// terms.
			v := int(ins.v) + base
			if w.t.Kind == logic.Var {
				if int(w.t.Sym) != v {
					bs.Bind(int(w.t.Sym), logic.V(v))
				}
			} else if w.off == 0 || w.t.IsGround() {
				bs.Bind(v, w.t)
			} else {
				bs.Bind(v, w.t.OffsetVars(w.off))
			}
		default: // opUnify
			if !bs.UnifyOff(w.t, w.off, *ins.term, base) {
				return false
			}
		}
	}
	return true
}

// runHead is runHeadCached's fallback when the cache is cold or unsafe:
// identical dispatch, but every instruction dereferences its goal argument
// live. prefix marks how many leading cache entries
// still equal a fresh walk; only the first executed instruction may consume
// one — before it nothing has been bound since the entries were walked,
// while later instructions must re-walk because an earlier instruction of
// the same candidate may have bound a variable the entry dereferenced.
func (m *Machine) runHead(code []instr, skip int32, goal logic.Term, off, base int, cache []walked, prefix int32) bool {
	bs := m.bs
	var scratch logic.Term
	for i := range code {
		ins := &code[i]
		if ins.arg == skip {
			continue
		}
		var x *logic.Term
		var ox int
		if ins.arg < prefix {
			x, ox = &cache[ins.arg].t, cache[ins.arg].off
		} else {
			x, ox = bs.WalkRef(&goal.Args[ins.arg], off, &scratch)
		}
		prefix = 0
		switch ins.op {
		case opGetAtom:
			switch x.Kind {
			case logic.Var:
				bs.Bind(int(x.Sym), *ins.term)
			case logic.Atom:
				if x.Sym != ins.sym {
					return false
				}
			default:
				return false
			}
		case opGetNum:
			switch {
			case x.Kind == logic.Var:
				bs.Bind(int(x.Sym), *ins.term)
			case x.IsNumber():
				if x.Num != ins.num {
					return false
				}
			default:
				return false
			}
		case opGetVar:
			v := int(ins.v) + base
			if x.Kind == logic.Var {
				if int(x.Sym) != v {
					bs.Bind(int(x.Sym), logic.V(v))
				}
			} else if ox == 0 || x.IsGround() {
				bs.Bind(v, *x)
			} else {
				bs.Bind(v, x.OffsetVars(ox))
			}
		default: // opUnify
			if !bs.UnifyOff(*x, ox, *ins.term, base) {
				return false
			}
		}
	}
	return true
}

// runEq reads a ground fact's head stream as equality, passing over the
// instruction at position skip: the goal is statically ground, so its
// arguments need no dereferencing and matching cannot bind anything.
func (m *Machine) runEq(code []instr, skip int32, goal logic.Term, off int) bool {
	for i := range code {
		ins := &code[i]
		if ins.arg == skip {
			continue
		}
		g := &goal.Args[ins.arg]
		switch ins.op {
		case opGetAtom:
			if g.Kind != logic.Atom || g.Sym != ins.sym {
				return false
			}
		case opGetNum:
			if !g.IsNumber() || g.Num != ins.num {
				return false
			}
		default: // opUnify on a ground compound
			if !m.bs.EqualGroundOff(*g, off, *ins.term) {
				return false
			}
		}
	}
	return true
}

// pushFrames block-copies a clause's precompiled body frames onto the goal
// stack, patching in the renaming offset and depth. The frames are already
// in push (reverse) order with static groundness flags baked in. It also
// keeps Machine.deepest, which a ground-call recording (memo.go) reads back.
func (m *Machine) pushFrames(frames []goalFrame, off, depth int32) {
	if len(frames) == 0 {
		return
	}
	for i := range frames {
		fr := frames[i]
		fr.off = off
		fr.depth = depth
		m.stack = append(m.stack, fr)
	}
	m.deepest = max(m.deepest, depth)
}
