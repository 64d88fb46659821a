package solve

import (
	"repro/internal/logic"
)

// This file gives a positive coverage answer its proof tree — the
// explanation artifact a classification API returns — from the one search
// that answered it. While ProveQuery runs, the VM keeps a flat stack of the
// goals discharged on the current branch (Machine.proof): runCands pushes a
// record for each matched candidate, step one for each builtin and each
// negation that succeeds, and each is popped when the search backtracks past
// it; a negation's sub-proof leaves none. SLD resolution discharges goals
// left to right, depth first, so at a solution the records are the proof's
// nodes in preorder, and their depths fix the tree's shape.
//
// Records are popped only on the way back to a choice point: a search that
// stops at a solution leaves them to whoever stopped it — ProveQuery, which
// has built its tree by then, or subProve, which drops them.

// ProofKind classifies how one proof node was discharged.
type ProofKind uint8

const (
	// ProofFact: the goal matched a KB fact.
	ProofFact ProofKind = iota
	// ProofRule: the goal resolved against a KB rule; children prove the body.
	ProofRule
	// ProofBuiltin: the goal was evaluated by the engine (=, is, <, ...).
	ProofBuiltin
	// ProofNAF: a negated goal whose positive form has no proof.
	ProofNAF
)

// String names the kind for rendering ("fact", "rule", "builtin", "naf").
func (k ProofKind) String() string {
	switch k {
	case ProofFact:
		return "fact"
	case ProofRule:
		return "rule"
	case ProofBuiltin:
		return "builtin"
	case ProofNAF:
		return "naf"
	}
	return "?"
}

// ProofStep is one node of a proof tree. Goal is the node's goal atom fully
// resolved under the proof's final bindings (ground wherever the proof bound
// it); Clause is the KB clause the goal resolved against (nil for builtin
// and negation-as-failure nodes); Children prove the clause body in order.
type ProofStep struct {
	Goal     logic.Term
	Neg      bool // negation-as-failure goal (Kind == ProofNAF)
	Kind     ProofKind
	Clause   *logic.Clause
	Children []*ProofStep
}

// proofRec is one discharged goal: the goal as posed with the renaming
// offset of its variables, its resolution depth (a query body goal is at 0),
// how it was discharged and, for a fact or rule, the clause.
type proofRec struct {
	goal   logic.Term
	off    int32
	depth  int32
	kind   ProofKind
	clause *logic.Clause
}

// noteClause records a goal that matched clause.
func (m *Machine) noteClause(goal logic.Term, off int, clause *logic.Clause, depth int32) {
	m.proof = append(m.proof, proofRec{goal: goal, off: int32(off), depth: depth, kind: clauseKind(clause), clause: clause})
}

func clauseKind(c *logic.Clause) ProofKind {
	if c.IsFact() {
		return ProofFact
	}
	return ProofRule
}

// ProveExample is CoversExample with a proof: it reports whether rule covers
// the ground example atom and, when it does, returns the proof tree rooted
// at the example (root Clause is rule, children prove the rule body against
// the KB). It compiles rule into the machine's scratch query on every call;
// callers holding a Query call ProveQuery.
func (m *Machine) ProveExample(rule *logic.Clause, example logic.Term) (*ProofStep, bool) {
	m.CompileQuery(&m.scratch, rule)
	return m.ProveQuery(&m.scratch, example)
}

// ProveQuery is CoversQuery with a proof: the same answer, charge and cutoff
// as the exact proof CoversQuery reports, and, when the example is covered,
// the tree of that proof. It runs on the compiled program even on a NoVM
// machine.
func (m *Machine) ProveQuery(q *Query, example logic.Term) (*ProofStep, bool) {
	m.beginQuery(q.numVars)
	defer m.endQuery()
	m.prog = m.kb.program()
	q = m.current(q)
	var root *ProofStep
	m.proof = m.proof[:0]
	m.proving = true
	m.proveQuery(q, example, func() bool {
		root = m.proofTree(q.rule, example)
		return false
	})
	m.proving = false
	return root, root != nil
}

// proofTree builds the proof of rule's head matched against example from the
// records of the solution the machine stands at, resolving every goal under
// the live bindings. All nodes share one array, and all child lists another
// (every node but the root is one child), so nodes and child lists cost two
// allocations whatever the tree's size.
func (m *Machine) proofTree(rule logic.Clause, example logic.Term) *ProofStep {
	nodes := make([]ProofStep, len(m.proof)+1)
	kids := make([]*ProofStep, len(m.proof))
	root := &nodes[0]
	*root = ProofStep{Goal: m.resolveOff(example, 0), Kind: clauseKind(&rule), Clause: &rule}
	root.Children, kids = kids[:0:len(rule.Body)], kids[len(rule.Body):]
	path := []*ProofStep{root} // path[d] is the latest node at depth d-1
	for i, r := range m.proof {
		n := &nodes[i+1]
		*n = ProofStep{Goal: m.resolveOff(r.goal, int(r.off)), Neg: r.kind == ProofNAF, Kind: r.kind, Clause: r.clause}
		if r.kind == ProofRule {
			body := len(r.clause.Body)
			n.Children, kids = kids[:0:body], kids[body:]
		}
		parent := path[r.depth]
		parent.Children = append(parent.Children, n)
		path = append(path[:r.depth+1], n)
	}
	return root
}

// resolveOff deep-dereferences t whose variables are shifted by off. Unlike
// Bindings.Resolve it threads the renaming offset, so it can materialize
// goals that were posed inside renamed clause instances.
func (m *Machine) resolveOff(t logic.Term, off int) logic.Term {
	t, off = m.bs.WalkOff(t, off)
	if t.Kind != logic.Compound {
		return t
	}
	args := make([]logic.Term, len(t.Args))
	for i := range t.Args {
		args[i] = m.resolveOff(t.Args[i], off)
	}
	return logic.Term{Kind: logic.Compound, Sym: t.Sym, Args: args}
}
