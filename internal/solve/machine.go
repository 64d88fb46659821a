package solve

import (
	"repro/internal/logic"
)

// Budget bounds a proof attempt. A proof that exhausts the budget counts as
// a failure (the standard ILP convention for h-bounded deduction: what cannot
// be derived within the resource bound is treated as not entailed).
type Budget struct {
	// MaxDepth bounds the resolution depth (proof tree height). ≤0 means 64.
	MaxDepth int
	// MaxInferences bounds the number of resolution/builtin steps for a
	// single query. ≤0 means 1<<20.
	MaxInferences int64
}

// The default bounds, defined once: withDefaults, DefaultBudget and any
// other defaulting site must agree on these numbers.
const (
	defaultMaxDepth      = 64
	defaultMaxInferences = 1 << 20
)

func (b Budget) withDefaults() Budget {
	if b.MaxDepth <= 0 {
		b.MaxDepth = defaultMaxDepth
	}
	if b.MaxInferences <= 0 {
		b.MaxInferences = defaultMaxInferences
	}
	return b
}

// DefaultBudget is a generous bound suitable for the bundled datasets.
var DefaultBudget = Budget{MaxDepth: defaultMaxDepth, MaxInferences: defaultMaxInferences}

// goalFrame is one pending goal on the machine's reusable goal stack. Each
// frame carries its own resolution depth (clause-body goals deepen while
// siblings do not) and the variable-renaming offset of the clause instance
// the literal came from, so program clauses are never copied to be renamed
// apart: the offset is threaded through unification instead.
type goalFrame struct {
	lit   logic.Literal
	off   int32 // variable-renaming offset for lit's variables
	depth int32
	// ground marks a statically ground goal atom (no variables in the
	// literal as written), enabling the equality-only match against ground
	// facts without any per-candidate groundness probing.
	ground bool
	// cp is the compiled predicate this goal statically resolves to
	// (program.staticPred): for such a goal the negation/variable/builtin
	// dispatch was decided at compile time. nil means the goal dispatches
	// dynamically.
	cp *compiledPred
}

// Machine is a single-goroutine SLD resolution engine over a shared KB.
// Total inferences accumulate across queries; this counter is the work
// measure that drives the simulated cluster's virtual clocks.
//
// The engine allocates nothing in steady state: pending goals live on a
// machine-owned stack whose backing array is reused across queries, clause
// renaming is an arithmetic offset rather than a term copy, and builtin
// arguments are materialized into a scratch buffer.
type Machine struct {
	kb     *KB
	bs     *logic.Bindings
	budget Budget

	// prog is the compiled program snapshot (compile.go) the current query
	// resolves against through the VM (vm.go).
	prog *program

	nextVar    int   // next fresh variable index for clause renaming
	queryInf   int64 // inferences spent in the current query
	totalInf   int64 // inferences spent since construction/reset
	budgetHit  bool  // current query hit its budget
	anyCutoffs int64 // queries that hit a budget since construction
	// work counts what was executed, where totalInf counts what was charged;
	// mark is its value when the current query began, which a fast proof
	// replaced by exact re-proofs (query.go, counted in reproofs) rolls back to.
	work, mark counters
	reproofs   int64

	// memoOn switches on the fast paths — the candidate filter (vm.go) and
	// the ground-call memo — inside CoversQuery and CoversPack; with it off
	// the VM runs in exact mode. deepest is the deepest frame depth pushed so
	// far, which a memo recording reads back.
	memo    memoTable
	memoOn  bool
	deepest int32

	// proving is on inside ProveQuery: the VM then keeps proof, one record
	// per goal discharged on the current branch (proof.go).
	proving bool
	proof   []proofRec

	stack   []goalFrame  // pending goals; the top is the last element
	base    int          // stack bottom of the current (sub)proof
	binArgs []logic.Term // scratch for builtin argument materialization
	arith   []arithOp    // operator named by each functor symbol (builtin.go)

	// wbuf/wtop form the arena for the VM's per-step goal-argument walk
	// caches: nested resolution steps carve disjoint windows off wbuf so no
	// per-step zeroing or allocation happens.
	wbuf []walked
	wtop int
	// fbuf/ftop are the same for the per-step candidate filters.
	fbuf []colKey
	ftop int

	// scratch is the machine-owned compiled query (query.go) behind the
	// entry points that take their rule or goals uncompiled.
	scratch       Query
	queryCompiles int64
}

// counters are what StepsExecuted, FilteredCandidates and ReplayedInferences
// report; a re-proof rolls all three back at once.
type counters struct{ steps, filtered, replayed int64 }

// NewMachine returns a machine over kb with the given budget.
func NewMachine(kb *KB, budget Budget) *Machine {
	return &Machine{kb: kb, bs: logic.NewBindings(64), budget: budget.withDefaults()}
}

// KB returns the machine's knowledge base.
func (m *Machine) KB() *KB { return m.kb }

// SetKB swaps the knowledge base. Its only caller is Pool.Put, which
// resets a returned machine to the pool's KB.
func (m *Machine) SetKB(kb *KB) { m.kb = kb }

// TotalInferences reports inferences accumulated over all queries.
func (m *Machine) TotalInferences() int64 { return m.totalInf }

// StepsExecuted reports the resolution steps the machine executed over all
// queries whose answers it reported: TotalInferences less ReplayedInferences
// as long as every rule is proved on its own, lower once query packs prove
// shared prefixes once. Under a re-proof, executed means the exact proof's
// steps: the fast proof it replaces — a CoversQuery's, or a pack pass that
// left any member to exact mode — counts neither here nor in
// FilteredCandidates or ReplayedInferences. It is updated when a query or
// pack ends, not per step.
func (m *Machine) StepsExecuted() int64 { return m.work.steps }

// ReplayedInferences reports the charges paid by replaying instead of
// executing: a recorded ground call (memo.go), or a whole query whose answer
// the caller already had (ReplayQuery). They are part of TotalInferences, not
// of StepsExecuted.
func (m *Machine) ReplayedInferences() int64 { return m.work.replayed }

// FilteredCandidates reports the candidate visits that were charged but not
// run, because the VM's candidate filter (vm.go) proved from the constants
// alone that their head could not match; they are part of TotalInferences
// and of StepsExecuted.
func (m *Machine) FilteredCandidates() int64 { return m.work.filtered }

// ReplayQuery reports an existence query the caller has already seen proved
// on this machine's program and budget without a cutoff — same rule up to
// variable renaming, same example: it charges what that proof charged, to
// TotalInferences and ReplayedInferences, and runs nothing. A cut-off proof
// must be proved again, not replayed: CutoffQueries does not move here.
func (m *Machine) ReplayQuery(charge int64) {
	m.totalInf += charge
	m.work.replayed += charge
}

// CutoffQueries reports how many queries were truncated by the budget.
func (m *Machine) CutoffQueries() int64 { return m.anyCutoffs }

// ResetCounters zeroes the accumulated inference statistics.
func (m *Machine) ResetCounters() {
	m.totalInf, m.anyCutoffs, m.reproofs = 0, 0, 0
	m.work = counters{}
}

// beginQuery prepares per-query state; vars [0, nVars) are reserved for the
// caller's goal variables.
func (m *Machine) beginQuery(nVars int) {
	m.prog = m.kb.program()
	if m.prog != m.memo.prog {
		m.memo.reset(m.prog)
	}
	m.bs.Undo(0)
	m.nextVar = nVars
	m.queryInf = 0
	m.budgetHit = false
	m.mark = m.work
	m.stack = m.stack[:0]
	m.base = 0
	m.wtop, m.ftop = 0, 0
}

func (m *Machine) endQuery() {
	m.totalInf += m.queryInf
	m.work.steps += m.queryInf - (m.work.replayed - m.mark.replayed)
	if m.budgetHit {
		m.anyCutoffs++
	}
}

// charge counts one inference step; it reports false when the budget is
// exhausted, which aborts the current branch.
func (m *Machine) charge() bool {
	m.queryInf++
	if m.queryInf >= m.budget.MaxInferences {
		m.budgetHit = true
		return false
	}
	return true
}

// chargeN is n consecutive charge() calls with nothing observable in
// between, for work a fast path pays without running — filtered candidates,
// a replayed segment — which it adds to *paid. If one of them would fail it
// only flags the budget: a fast proof that sees a budget event is replaced by
// an exact one (query.go), so what it charged past the event never counts.
func (m *Machine) chargeN(n int64, paid *int64) bool {
	if m.queryInf+n >= m.budget.MaxInferences {
		m.budgetHit = true
		return false
	}
	m.queryInf += n
	*paid += n
	return true
}

// pushQuery compiles the caller-supplied goals into the scratch query and
// pushes its frames (query.go: static groundness and dispatch derived once).
func (m *Machine) pushQuery(goals []logic.Literal) {
	m.scratch.compileBody(m.prog, goals)
	m.stack = append(m.stack, m.scratch.frames...)
}

// Solve enumerates solutions of the conjunction goals, whose variables are
// numbered below nVars. For each solution it calls yield with the machine's
// bindings (valid only during the call); yield returns false to stop the
// enumeration. Solve reports whether at least one solution was found. Like
// Prove it runs in exact mode: what yield did cannot be undone for a
// re-proof, so no fast path may need one.
func (m *Machine) Solve(goals []logic.Literal, nVars int, yield func(*logic.Bindings) bool) bool {
	m.beginQuery(nVars)
	defer m.endQuery()
	m.pushQuery(goals)
	found := false
	m.solve(func() bool {
		found = true
		return yield(m.bs)
	})
	return found
}

// Prove reports whether the conjunction goals has at least one solution.
func (m *Machine) Prove(goals []logic.Literal, nVars int) bool {
	m.beginQuery(nVars)
	defer m.endQuery()
	m.pushQuery(goals)
	return !m.solve(stopAtFirst)
}

// ProveAtom proves a single positive goal.
func (m *Machine) ProveAtom(goal logic.Term) bool {
	return m.Prove([]logic.Literal{logic.Lit(goal)}, goal.MaxVar()+1)
}

// CoversExample reports whether rule covers the ground example atom: the
// rule head must unify with the example and the body must then be provable
// from the KB. It compiles rule into the machine's scratch query on every
// call; callers testing one rule against many examples hold a Query
// (CompileQuery) and call CoversQuery instead.
func (m *Machine) CoversExample(rule *logic.Clause, example logic.Term) bool {
	m.CompileQuery(&m.scratch, rule)
	return m.CoversQuery(&m.scratch, example)
}

// solve runs the SLD search over the pending goal stack. The continuation k
// is invoked at each solution and returns whether to keep searching.
// solve's own return value has the same meaning (false = stop everything).
// solve leaves the stack exactly as it found it.
func (m *Machine) solve(k func() bool) bool {
	top := len(m.stack)
	if top == m.base {
		return k()
	}
	top--
	fr := m.stack[top]
	m.stack = m.stack[:top]
	cont := m.step(fr, k)
	m.stack = append(m.stack[:top], fr)
	return cont
}

// step resolves one popped goal frame against builtins or the KB.
func (m *Machine) step(fr goalFrame, k func() bool) bool {
	if !m.charge() {
		return true // budget: abandon this branch, enumeration "completes"
	}
	if fr.cp != nil {
		// Statically dispatched compiled goal: the compiler proved it is a
		// positive non-variable non-builtin atom, so only the depth check
		// remains before KB resolution.
		if fr.depth >= int32(m.budget.MaxDepth) {
			m.budgetHit = true
			return true
		}
		if m.memoOn && fr.cp.memo {
			if cont, ok := m.callMemo(&fr, k); ok {
				return cont
			}
		}
		return m.resolveVM(fr.cp, fr.lit.Atom, int(fr.off), fr, k)
	}
	g := fr.lit
	if g.Neg {
		// Negation as failure: succeed iff the positive goal has no proof.
		if m.subProve(g.Atom, fr.off, fr.depth+1, fr.ground) {
			return true
		}
		top := len(m.proof)
		if m.proving {
			m.proof = append(m.proof, proofRec{goal: g.Atom, off: fr.off, depth: fr.depth, kind: ProofNAF})
		}
		if !m.solve(k) {
			return false
		}
		m.proof = m.proof[:top]
		return true
	}
	atom := g.Atom
	off := int(fr.off)
	if atom.Kind == logic.Var {
		// A variable goal must be bound to something callable to be provable.
		// WalkOff consumes the offset at the first dereference and slots are
		// stored offset-free, so the walked term needs no further renaming.
		t, _ := m.bs.WalkOff(atom, off)
		if t.Kind == logic.Var {
			return true
		}
		atom, off = t, 0
	}
	if fn := builtinFor(atom); fn != nil {
		goal := m.builtinGoal(atom, off)
		mark := m.bs.Mark()
		if fn(m, goal) {
			top := len(m.proof)
			if m.proving {
				m.proof = append(m.proof, proofRec{goal: atom, off: int32(off), depth: fr.depth, kind: ProofBuiltin})
			}
			if !m.solve(k) {
				return false
			}
			m.proof = m.proof[:top]
		}
		m.bs.Undo(mark)
		return true
	}
	if fr.depth >= int32(m.budget.MaxDepth) {
		m.budgetHit = true
		return true
	}
	cp := m.prog.predFor(atom)
	if cp == nil {
		return true
	}
	return m.resolveVM(cp, atom, off, fr, k)
}

// subProve runs an isolated subproof of a single goal (used for negation as
// failure): the goals pending below the current stack top must not be
// touched, so the proof runs above a raised stack base, and it leaves no
// proof records.
func (m *Machine) subProve(atom logic.Term, off, depth int32, ground bool) bool {
	savedBase, top := m.base, len(m.proof)
	m.base = len(m.stack)
	m.stack = append(m.stack, goalFrame{lit: logic.Lit(atom), off: off, depth: depth, ground: ground})
	m.deepest = max(m.deepest, depth)
	proved := false
	m.solve(func() bool {
		proved = true
		return false
	})
	m.stack = m.stack[:m.base]
	m.base = savedBase
	m.proof = m.proof[:top]
	return proved
}

// builtinGoal materializes a builtin goal's arguments offset-free into the
// machine's scratch buffer. Builtins read their arguments and return before
// any further resolution happens, so one reusable buffer suffices; bindings
// only ever store value copies of its elements, never the buffer itself.
func (m *Machine) builtinGoal(atom logic.Term, off int) logic.Term {
	if atom.Kind != logic.Compound {
		return atom
	}
	n := len(atom.Args)
	if cap(m.binArgs) < n {
		m.binArgs = make([]logic.Term, n, 2*n+4)
	}
	args := m.binArgs[:n]
	for i := range atom.Args {
		t, o := m.bs.WalkOff(atom.Args[i], off)
		if o != 0 && t.Kind == logic.Compound && !t.IsGround() {
			t = t.OffsetVars(o)
		}
		args[i] = t
	}
	return logic.Term{Kind: logic.Compound, Sym: atom.Sym, Args: args}
}
