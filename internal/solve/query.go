package solve

import (
	"repro/internal/logic"
)

// This file is the query-side counterpart of compile.go. A coverage batch
// evaluates one candidate rule against every example of a shard, so the rule
// is the stationary operand: everything that depends only on the rule — its
// variable count, the static groundness of each body literal, the compiled
// predicate each body literal dispatches to, the shape of each head argument —
// is derived once into a Query, and each example then costs only the head
// match and the proof itself.
//
// A Query charges nothing and binds nothing the tree path did not. The head
// stream is compile.go's own (appendHead), run by the VM's runHead with the
// ground example in the goal position: a first-occurrence variable binds to
// the example argument, a constant compares, repeated variables and compound
// arguments fall to UnifyOff — the bindings, in trail order, that
// Unify(rule.Head, example) makes. Head matching is never charged; the body
// frames carry the dispatch compileKB applies to clause bodies (positive
// callable non-builtin goals resolve statically, everything else stays
// dynamic, and the two reach resolveVM with the same predicate after the same
// charge). So inference totals, cutoffs and solution order are bit-identical
// to resolving the rule as a tree, which the seed reference in
// differential_test.go still does.

// Query is a rule (or a bare conjunction) compiled for repeated evaluation.
// It is immutable between compilations and may be shared read-only by any
// number of machines; the zero value is ready to compile into. A Query
// aliases the argument storage of the clause it was compiled from, which
// must not be mutated while the Query is in use.
type Query struct {
	rule    logic.Clause
	numVars int
	// prog is the compiled program the frames' cp pointers were resolved
	// against; nil marks the interpreter form (dynamic frames, tree head).
	// A machine whose current program differs recompiles before running.
	prog *program
	// treeHead selects Unify for the head: always on the interpreter form —
	// which keeps NoVM an oracle independent of the head compiler — and for
	// the degenerate non-callable heads the stream has no opcode for.
	treeHead bool
	code     []instr     // head stream over rule.Head's arguments
	frames   []goalFrame // body goals in push (reverse) order, off = depth = 0
	seen     []bool      // appendHead's first-occurrence scratch
}

// CompileQuery compiles rule into q for this machine's engine and the
// current state of its KB, reusing q's buffers: recompiling one Query per
// rule of a batch allocates nothing in steady state.
func (m *Machine) CompileQuery(q *Query, rule *logic.Clause) {
	m.queryCompiles++
	q.compile(m.currentProgram(), rule)
}

// QueryCompilations reports how many rule compilations this machine has
// done, CoversExample's per-call ones and stale-query recompilations
// included (for tests asserting the compile-once-per-rule contract of the
// batch evaluators).
func (m *Machine) QueryCompilations() int64 { return m.queryCompiles }

// CompileQueries compiles one Query per rule, for callers that hold a whole
// theory across many examples.
func (m *Machine) CompileQueries(rules []logic.Clause) []Query {
	qs := make([]Query, len(rules))
	for i := range rules {
		m.CompileQuery(&qs[i], &rules[i])
	}
	return qs
}

func (q *Query) compile(prog *program, rule *logic.Clause) {
	q.rule = *rule
	q.numVars = q.compileBody(prog, rule.Body)
	if v := rule.Head.MaxVar() + 1; v > q.numVars {
		q.numVars = v
	}
	head := &q.rule.Head
	q.code = q.code[:0]
	q.treeHead = prog == nil || (head.Kind != logic.Compound && head.Kind != logic.Atom)
	if !q.treeHead {
		if cap(q.seen) < q.numVars {
			q.seen = make([]bool, q.numVars)
		}
		seen := q.seen[:q.numVars]
		clear(seen)
		q.code = appendHead(q.code, head, seen)
	}
}

// compileBody builds the goal frames for a top-level conjunction, resolved
// against prog (which it records), and returns one more than the
// conjunction's largest variable index. One walk per literal yields both that
// and the literal's static groundness.
func (q *Query) compileBody(prog *program, body []logic.Literal) int {
	q.prog = prog
	q.frames = q.frames[:0]
	numVars := 0
	for i := len(body) - 1; i >= 0; i-- {
		v := body[i].Atom.MaxVar()
		if v >= numVars {
			numVars = v + 1
		}
		fr := goalFrame{lit: body[i], ground: v < 0}
		if prog != nil {
			fr.cp = prog.staticPred(fr.lit)
		}
		q.frames = append(q.frames, fr)
	}
	return numVars
}

// Existence queries take fast paths that charge work they do not run: the
// candidate filter (vm.go), the ground-call memo (memo.go) and query packs
// (pack.go). Each is exact up to the first budget event — an inference or
// depth cut anywhere — and none tries past it: past a cutoff the interpreter's
// charges include how its goal stack unwinds. So a fast proof that sees one
// is proved once more in exact mode, the compiled VM with no filter, no memo
// and no pack (proveExact). Solve and Prove, ProveQuery, memo recordings and
// re-proofs always run exact; the interpreter has no fast path and nothing to
// re-prove.

// CoversQuery reports whether the compiled rule covers the ground example
// atom: CoversExample with the per-rule work already done.
func (m *Machine) CoversQuery(q *Query, example logic.Term) bool {
	m.beginQuery(q.numVars)
	q = m.current(q)
	fast := m.prog != nil
	m.memoOn = fast
	found := m.proveQuery(q, example, stopAtFirst)
	m.memoOn = false
	if fast && m.budgetHit {
		m.work = m.mark // the fast proof is not reported, so not counted
		return m.proveExact(q, example)
	}
	m.endQuery()
	return found
}

// proveExact is the slow path of every fast one: it proves q on example in
// exact mode and reports that proof as the query — its answer, and its
// charge and cutoff added to the machine's counters (queryInf holds the
// charge afterwards). The caller has rolled the executed-work counters back
// past the fast proof it replaces.
func (m *Machine) proveExact(q *Query, example logic.Term) bool {
	m.reproofs++
	m.beginQuery(q.numVars)
	found := m.proveQuery(q, example, stopAtFirst)
	m.endQuery()
	return found
}

// current returns q, or — when q was compiled for another program than the
// machine's current one (the KB was extended or swapped, or the engine
// toggled), so its cp pointers are stale — q recompiled into the machine's
// own scratch; q may be shared and stays untouched.
func (m *Machine) current(q *Query) *Query {
	if q.prog == m.prog {
		return q
	}
	m.queryCompiles++
	m.scratch.compile(m.prog, &q.rule)
	return &m.scratch
}

// proveQuery runs the proof of q's body under its head matched against
// example, on the state beginQuery prepared, calling k at each solution until
// it asks to stop; it reports whether k stopped it.
func (m *Machine) proveQuery(q *Query, example logic.Term, k func() bool) bool {
	if !m.matchQueryHead(q, example) {
		return false
	}
	m.stack = append(m.stack, q.frames...)
	return !m.solve(k)
}

// stopAtFirst is the existence-query continuation. solve reports false only
// when its continuation asked to stop, so !solve(stopAtFirst) is "a solution
// was found" without a captured flag.
func stopAtFirst() bool { return false }

func (m *Machine) matchQueryHead(q *Query, example logic.Term) bool {
	head := &q.rule.Head
	if q.treeHead {
		return m.bs.Unify(*head, example)
	}
	if example.Kind != head.Kind || example.Sym != head.Sym || len(example.Args) != len(head.Args) {
		return false
	}
	return m.runHead(q.code, -1, example, 0, 0, nil, 0)
}
