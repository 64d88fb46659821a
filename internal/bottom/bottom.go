// Package bottom implements MDIE saturation: constructing the most specific
// clause ("bottom clause", ⊥e) that entails a selected example under the
// background knowledge and the mode-declaration language bias.
//
// The bottom clause is the cornerstone of the MDIE search (paper §3): every
// candidate rule considered afterwards is a subset of its literals, so its
// construction bounds — and orders — the whole search space. In the
// pipelined parallel algorithm the bottom clause additionally travels along
// the pipeline so later stages can continue refining against it (paper §4).
package bottom

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/solve"
)

// Options controls saturation.
type Options struct {
	// VarDepth is Progol's i-bound: how many layers of new variables may be
	// introduced. ≤0 means 2.
	VarDepth int
	// MaxLiterals caps the number of body literals kept. ≤0 means 128.
	MaxLiterals int
	// MaxRecall bounds solutions per instantiation when a declaration's
	// recall is '*' (unbounded). ≤0 means 64.
	MaxRecall int
}

func (o Options) withDefaults() Options {
	if o.VarDepth <= 0 {
		o.VarDepth = 2
	}
	if o.MaxLiterals <= 0 {
		o.MaxLiterals = 128
	}
	if o.MaxRecall <= 0 {
		o.MaxRecall = 64
	}
	return o
}

// LitInfo records the variable discipline of one bottom-clause literal,
// used by the refinement operator: a literal may join a clause only when
// all its InVars are already bound; once added it binds its OutVars.
type LitInfo struct {
	InVars  []int32
	OutVars []int32
	Depth   int32
}

// Bottom is a saturated most-specific clause with refinement metadata.
// All fields are exported so a Bottom can travel between pipeline stages.
type Bottom struct {
	// Example is the saturated example atom.
	Example logic.Term
	// Head is the (variabilised) clause head.
	Head logic.Term
	// Lits are the body literals in generation order.
	Lits []logic.Literal
	// Info parallels Lits.
	Info []LitInfo
	// HeadVars are the variables bound by the head.
	HeadVars []int32
	// NumVars is one more than the largest variable index used.
	NumVars int
	// Truncated reports that MaxLiterals stopped the saturation early.
	Truncated bool
}

// ToClause returns the full bottom clause (head :- all literals).
func (b *Bottom) ToClause() logic.Clause {
	return logic.Clause{Head: b.Head, Body: append([]logic.Literal(nil), b.Lits...)}
}

// Materialize returns the rule formed by the head plus the selected body
// literal indices, preserving bottom-clause variable numbering.
func (b *Bottom) Materialize(indices []int32) logic.Clause {
	c := logic.Clause{Head: b.Head}
	if len(indices) > 0 { // the head-only rule keeps its nil body
		c.Body = make([]logic.Literal, 0, len(indices))
	}
	for _, i := range indices {
		c.Body = append(c.Body, b.Lits[i])
	}
	return c
}

// inEntry is a saturation constant available as an input of a given type.
type inEntry struct {
	constant logic.Term
	varIdx   int32
	depth    int
}

type constructor struct {
	m    *solve.Machine
	ms   *mode.Set
	opts Options

	varOf   map[string]int32           // constant+type → variable index
	inTerms map[logic.Symbol][]inEntry // type → available inputs, insertion order
	litSeen map[string]bool            // dedup of generated literals
	nextVar int32
	out     *Bottom
}

func constKey(t logic.Term, typ logic.Symbol) string {
	return typ.Name() + "\x00" + t.String()
}

// varFor returns the variable standing for constant c of the given type,
// creating it (and registering the input entry at depth) when new. The
// second result reports whether the variable is new.
func (ct *constructor) varFor(c logic.Term, typ logic.Symbol, depth int) (int32, bool) {
	key := constKey(c, typ)
	if v, ok := ct.varOf[key]; ok {
		return v, false
	}
	v := ct.nextVar
	ct.nextVar++
	ct.varOf[key] = v
	ct.inTerms[typ] = append(ct.inTerms[typ], inEntry{constant: c, varIdx: v, depth: depth})
	return v, true
}

// Construct saturates example against the machine's knowledge base under the
// mode set. Proof effort is charged to the machine's inference counters, so
// saturation cost flows into the same work measure as coverage tests.
func Construct(m *solve.Machine, ms *mode.Set, example logic.Term, opts Options) (*Bottom, error) {
	opts = opts.withDefaults()
	if example.Pred() != ms.Head.Pred {
		return nil, fmt.Errorf("bottom: example %s does not match modeh %s", example, ms.Head)
	}
	if !example.IsGround() {
		return nil, fmt.Errorf("bottom: example %s is not ground", example)
	}
	ct := &constructor{
		m:       m,
		ms:      ms,
		opts:    opts,
		varOf:   make(map[string]int32),
		inTerms: make(map[logic.Symbol][]inEntry),
		litSeen: make(map[string]bool),
		out:     &Bottom{Example: example},
	}
	if err := ct.buildHead(example); err != nil {
		return nil, err
	}
	for depth := 1; depth <= opts.VarDepth && !ct.out.Truncated; depth++ {
		ct.saturateLayer(depth)
	}
	ct.out.NumVars = int(ct.nextVar)
	return ct.out, nil
}

// buildHead variabilises the example according to modeh: + and - places
// become (typed) variables seeding the input set; # places stay constant.
func (ct *constructor) buildHead(example logic.Term) error {
	places := ct.ms.Head.Places
	if len(places) != len(example.Args) {
		return fmt.Errorf("bottom: arity mismatch between example %s and modeh %s", example, ct.ms.Head)
	}
	args := make([]logic.Term, len(example.Args))
	for i, p := range places {
		switch p.Kind {
		case mode.In, mode.Out:
			v, _ := ct.varFor(example.Args[i], p.Type, 0)
			args[i] = logic.V(int(v))
			ct.out.HeadVars = append(ct.out.HeadVars, v)
		case mode.ConstPlace:
			args[i] = example.Args[i]
		}
	}
	ct.out.Head = logic.CompSym(example.Sym, args...)
	return nil
}

// saturateLayer runs every body declaration against all input combinations
// whose entries were discovered strictly before this depth.
func (ct *constructor) saturateLayer(depth int) {
	// Snapshot input availability: entries introduced at this depth must not
	// feed literals of the same depth (they become available next layer).
	avail := make(map[logic.Symbol]int)
	for ty, entries := range ct.inTerms {
		n := 0
		for _, e := range entries {
			if e.depth < depth {
				n++
			}
		}
		avail[ty] = n
	}
	for _, d := range ct.ms.Body {
		ct.saturateDecl(d, depth, avail)
		if ct.out.Truncated {
			return
		}
	}
}

func (ct *constructor) saturateDecl(d mode.Decl, depth int, avail map[logic.Symbol]int) {
	// Collect the index positions of In places and verify availability.
	var inPlaces []int
	for i, p := range d.Places {
		if p.Kind == mode.In {
			if avail[p.Type] == 0 {
				return
			}
			inPlaces = append(inPlaces, i)
		}
	}
	// Iterate the cartesian product of available inputs, odometer-style.
	choice := make([]int, len(inPlaces))
	for {
		ct.instantiate(d, depth, inPlaces, choice)
		if ct.out.Truncated {
			return
		}
		// Advance odometer.
		k := len(choice) - 1
		for ; k >= 0; k-- {
			choice[k]++
			if choice[k] < avail[d.Places[inPlaces[k]].Type] {
				break
			}
			choice[k] = 0
		}
		if k < 0 {
			return // odometer wrapped: all combinations done
		}
	}
}

// instantiate runs one input combination of declaration d: query the KB and
// add a literal per solution, up to the declaration's recall.
func (ct *constructor) instantiate(d mode.Decl, depth int, inPlaces []int, choice []int) {
	recall := d.Recall
	if recall <= 0 {
		recall = ct.opts.MaxRecall
	}
	// Build the query: In places carry the chosen constants; Out/# places
	// carry fresh query variables 0..n-1.
	queryArgs := make([]logic.Term, len(d.Places))
	inEntries := make([]inEntry, len(d.Places)) // indexed by place, only In filled
	qv := 0
	for i, p := range d.Places {
		if p.Kind == mode.In {
			// Which choice slot does this place use?
			slot := 0
			for s, ip := range inPlaces {
				if ip == i {
					slot = s
					break
				}
			}
			entries := ct.inTerms[p.Type]
			// choice indexes the sub-list of entries with depth < current;
			// entries are append-only so the first avail ones qualify.
			e := entries[choice[slot]]
			inEntries[i] = e
			queryArgs[i] = e.constant
			continue
		}
		queryArgs[i] = logic.V(qv)
		qv++
	}
	goal := logic.CompSym(d.Pred.Sym, queryArgs...)
	type solution struct{ vals []logic.Term }
	var sols []solution
	ct.m.Solve([]logic.Literal{logic.Lit(goal)}, qv, func(bs *logic.Bindings) bool {
		vals := make([]logic.Term, qv)
		ground := true
		for i := 0; i < qv; i++ {
			vals[i] = bs.Resolve(logic.V(i))
			if !vals[i].IsGround() {
				ground = false
			}
		}
		if ground {
			sols = append(sols, solution{vals: vals})
		}
		return len(sols) < recall
	})
	for _, sol := range sols {
		litArgs := make([]logic.Term, len(d.Places))
		var info LitInfo
		info.Depth = int32(depth)
		sv := 0
		for i, p := range d.Places {
			switch p.Kind {
			case mode.In:
				litArgs[i] = logic.V(int(inEntries[i].varIdx))
				info.InVars = append(info.InVars, inEntries[i].varIdx)
			case mode.Out:
				v, _ := ct.varFor(sol.vals[sv], p.Type, depth)
				litArgs[i] = logic.V(int(v))
				info.OutVars = append(info.OutVars, v)
				sv++
			case mode.ConstPlace:
				litArgs[i] = sol.vals[sv]
				sv++
			}
		}
		lit := logic.Lit(logic.CompSym(d.Pred.Sym, litArgs...))
		key := lit.String()
		if ct.litSeen[key] {
			continue
		}
		ct.litSeen[key] = true
		ct.out.Lits = append(ct.out.Lits, lit)
		ct.out.Info = append(ct.out.Info, info)
		if len(ct.out.Lits) >= ct.opts.MaxLiterals {
			ct.out.Truncated = true
			return
		}
	}
}
