package solve

import (
	"repro/internal/logic"
)

// This file runs a fan of compiled queries — rules sharing their head and
// their first k body literals, as the children "parent body + one appended
// literal" of an expanded search node do — against one example in a single
// pass: the shared prefix's solutions are enumerated once, and at each of
// them every still-unsatisfied member's own suffix runs as an existence
// sub-proof. A member is retired at its first success; the enumeration stops
// when none is left.
//
// Every member is charged what its stand-alone CoversQuery would have been,
// by construction rather than by estimate. The prefix's search does not
// depend on what consumes its solutions, so when the enumeration stands at a
// prefix solution having charged P, member c's stand-alone counter would
// read P plus whatever c's suffix charged under the earlier solutions
// (suffix[c]). The pack's continuation sets queryInf to exactly that before
// c's sub-proof — charge()'s budget test then *is* the stand-alone test —
// reads suffix[c] back afterwards and restores P.
//
// A pack is a fast path (query.go): it stops at its first budget event — in
// the prefix or a suffix, where a running sum that crossed MaxInferences since
// the last prefix solution trips at the first charge — and every member not
// yet satisfied is proved again in exact mode; so is one whose running sum
// has reached MaxInferences when the prefix runs dry.

// QueryPack is a set of rules sharing head and leading body literals,
// compiled for evaluation against one example at a time (CompilePack,
// CoversPack). Unlike a Query it carries per-example scratch and so belongs
// to one machine at a time; the zero value is ready to compile into, and a
// compiled pack must not be copied (its continuation is bound to it).
type QueryPack struct {
	queries []Query // one per member; buffers reused across compilations
	prefix  int     // shared leading body literals, ≥ 1
	numVars int     // the largest member's

	// State of the example under evaluation. live lists the members not yet
	// satisfied, in member order — after the pass, the ones left to exact
	// mode; suffix[c] is what c's suffix sub-proofs have charged so far;
	// charged[c] is c's stand-alone total once settled.
	live    []int32
	suffix  []int64
	charged []int64
	m       *Machine
	hit     []bool
	// atSolution is the prefix enumeration's continuation, bound to the
	// pack once so that running an example allocates nothing.
	atSolution func() bool
}

// Charged reports what member c was charged for the example most recently
// run: the inferences its stand-alone CoversQuery would have added to
// TotalInferences, 0 if it was skipped.
func (p *QueryPack) Charged(c int) int64 { return p.charged[c] }

// CompilePack compiles rules into p, each exactly once, reusing p's buffers.
// The caller vouches that the rules share their head and their first prefix
// body literals (prefix ≥ 1) — CoversPack runs the first member's frames for
// that part on everyone's behalf.
func (m *Machine) CompilePack(p *QueryPack, rules []*logic.Clause, prefix int) {
	n := len(rules)
	if prefix < 1 {
		panic("solve: query pack without a shared prefix")
	}
	if have := cap(p.queries); have < n {
		// Keep the compiled buffers of the queries already there.
		p.queries = append(p.queries[:have], make([]Query, n-have)...)
	}
	if cap(p.suffix) < n {
		p.live = make([]int32, 0, n)
		p.suffix = make([]int64, n)
		p.charged = make([]int64, n)
	}
	p.queries = p.queries[:n]
	p.suffix = p.suffix[:n]
	p.charged = p.charged[:n]
	p.prefix = prefix
	p.numVars = 0
	for c, r := range rules {
		if len(r.Body) < prefix {
			panic("solve: query pack member shorter than the shared prefix")
		}
		q := &p.queries[c]
		m.CompileQuery(q, r)
		if q.numVars > p.numVars {
			p.numVars = q.numVars
		}
	}
	if p.atSolution == nil {
		p.atSolution = p.runSuffixes
	}
}

// CoversPack sets hit[c] to whether member c of the pack covers the ground
// example atom, for every member not skipped: one CoversQuery call per such
// member — same answers, same TotalInferences, same CutoffQueries — with the
// shared prefix proved once. A member with skip[c] set (skip may be nil) is
// left out as if it were not in the pack: it runs nothing, is charged
// nothing, and its hit is false.
func (m *Machine) CoversPack(p *QueryPack, example logic.Term, hit, skip []bool) {
	qs := p.queries
	hit = hit[:len(qs)]
	m.beginQuery(p.numVars)
	clear(hit)
	clear(p.charged)
	p.live = p.live[:0]
	for c := range qs {
		if skip == nil || !skip[c] {
			p.live = append(p.live, int32(c))
		}
	}
	if len(p.live) == 0 {
		return
	}
	if qs[0].prog != m.prog {
		// Compiled for another program (see CoversQuery). Each member
		// recompiles into the machine's scratch as it would stand-alone; a
		// pack that outlives its program is not worth a second code path.
		for _, c := range p.live {
			hit[c] = m.CoversQuery(&qs[c], example)
			p.charged[c] = m.queryInf
		}
		return
	}
	if !m.matchQueryHead(&qs[0], example) {
		return // head matching is never charged
	}
	clear(p.suffix)
	p.m, p.hit = m, hit
	frames := qs[0].frames
	m.stack = append(m.stack, frames[len(frames)-p.prefix:]...)
	m.memoOn = true
	m.solve(p.atSolution)
	m.memoOn = false

	// The prefix ran dry, nobody was left to want its next solution, or the
	// pass stopped at a budget event. A member still unsatisfied is charged
	// its running sum, unless the event or that sum reaching MaxInferences
	// leaves it to exact mode.
	prefix := m.queryInf
	exact := p.live[:0]
	for _, c := range p.live {
		if total := prefix + p.suffix[c]; m.budgetHit || total >= m.budget.MaxInferences {
			exact = append(exact, c)
		} else {
			p.charged[c] = total
		}
	}
	p.live = exact
	// What was executed is the prefix once plus every suffix sub-proof, less
	// what ground-call replays paid — unless re-proofs replace the pass.
	steps := prefix - (m.work.replayed - m.mark.replayed)
	for c := range qs {
		steps += p.suffix[c]
		m.totalInf += p.charged[c]
	}
	m.work.steps += steps
	if len(exact) > 0 {
		m.work = m.mark
	}
	for _, c := range exact {
		hit[c] = m.proveExact(&qs[c], example)
		p.charged[c] = m.queryInf
	}
}

// runSuffixes is the continuation of the prefix enumeration: invoked at each
// prefix solution with the goal stack empty and the solution in the bindings.
// It reports whether any member still wants another solution; none does once
// the budget is flagged, by the prefix on the way here or by a suffix.
func (p *QueryPack) runSuffixes() bool {
	m := p.m
	if m.budgetHit {
		return false
	}
	prefix := m.queryInf
	mark, nextVar, top := m.bs.Mark(), m.nextVar, len(m.stack)
	live := p.live[:0]
	for i, c := range p.live {
		q := &p.queries[c]
		m.queryInf = prefix + p.suffix[c]
		var found bool
		if suffix := q.frames[:len(q.frames)-p.prefix]; len(suffix) == 1 {
			found = m.stepSuffix(&suffix[0])
		} else {
			m.stack = append(m.stack, suffix...)
			found = !m.solve(stopAtFirst)
		}
		// An early stop leaves builtin and ground-fact steps un-undone.
		m.stack = m.stack[:top]
		m.bs.Undo(mark)
		m.nextVar = nextVar
		p.suffix[c] = m.queryInf - prefix
		if m.budgetHit {
			live = append(live, p.live[i:]...) // c and everyone after it
			break
		}
		if found {
			p.hit[c] = true
			p.charged[c] = m.queryInf
		} else {
			live = append(live, c)
		}
	}
	p.live = live
	m.queryInf = prefix
	return len(live) > 0 && !m.budgetHit
}

// stepSuffix runs a one-goal suffix and reports whether it has a solution:
// !m.step(*fr, stopAtFirst), which is what solve does with fr pushed — pop
// it, step it — since the pass cuts the stack back right afterwards. A
// ground call to a memoizable predicate is answered from its memo entry
// instead, in step's order: the call's own charge, the lookup or recording,
// the recorded-depth guard, then the first segment if there is a solution
// and the tail if not. step's check of the frame's depth cannot fire here:
// a suffix goal is a query body goal, at depth 0, and MaxDepth is at least
// 1. A non-constant argument runs the step; a disabled entry, the live call.
func (m *Machine) stepSuffix(fr *goalFrame) bool {
	// The memo is on throughout a pass, so only the call decides.
	var key memoKey
	if fr.cp == nil || !fr.cp.memo || !m.memoKey(fr, &key) {
		return !m.step(*fr, stopAtFirst)
	}
	if !m.charge() {
		return false
	}
	segs, tail, ok := m.memoReplay(fr, &key)
	switch {
	case !ok:
		return !m.resolveVM(fr.cp, fr.lit.Atom, int(fr.off), *fr, stopAtFirst)
	case len(segs) == 0:
		m.chargeN(tail, &m.work.replayed)
		return false
	}
	return m.chargeN(segs[0], &m.work.replayed)
}
