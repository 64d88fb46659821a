package solve

import (
	"sync"
	"testing"

	"repro/internal/logic"
)

// TestCompileOncePerKB pins the sharing contract of the bytecode compiler:
// however many machines prove against one KB — pool checkouts, the fixed
// shard view, or a standalone machine — the KB is compiled exactly once,
// and only a mutation forces a recompile.
func TestCompileOncePerKB(t *testing.T) {
	kb := poolKB(t)
	if n := kb.Compilations(); n != 0 {
		t.Fatalf("fresh KB reports %d compilations, want 0", n)
	}
	goal, err := logic.ParseTerm("anc(ann, dee)")
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent Get/Put checkouts racing the first compile: exactly one
	// build must win, everyone shares it.
	p := NewPool(kb, DefaultBudget, 4)
	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := p.Get()
			defer p.Put(m)
			if !m.ProveAtom(goal) {
				t.Error("proof failed on pooled machine")
			}
		}()
	}
	wg.Wait()
	if n := kb.Compilations(); n != 1 {
		t.Fatalf("after concurrent pool checkouts: %d compilations, want 1", n)
	}

	// The shard view and an unrelated standalone machine reuse the same
	// published program.
	for _, m := range p.Machines() {
		if !m.ProveAtom(goal) {
			t.Fatal("proof failed on sharded machine")
		}
	}
	if !NewMachine(kb, DefaultBudget).ProveAtom(goal) {
		t.Fatal("proof failed on standalone machine")
	}
	if n := kb.Compilations(); n != 1 {
		t.Fatalf("after shard + standalone reuse: %d compilations, want 1", n)
	}

	// Mutation invalidates; the next query triggers exactly one rebuild.
	kb.Add(logic.MustParseClause("parent(dee, eve)."))
	if !NewMachine(kb, DefaultBudget).ProveAtom(goal) {
		t.Fatal("proof failed after KB.Add")
	}
	if n := kb.Compilations(); n != 2 {
		t.Fatalf("after Add + requery: %d compilations, want 2", n)
	}
}

// TestSetNoVMRefusesTrue: SetNoVM is kept only for bench/, which passes it
// search.Settings.NoVM, always false. SetNoVM(false) changes nothing — the
// answer, the charge and the one compilation of the KB are a plain
// machine's — and SetNoVM(true), which asked for the deleted interpreter,
// panics.
func TestSetNoVMRefusesTrue(t *testing.T) {
	kb := poolKB(t)
	goal := logic.MustParseTerm("anc(ann, dee)")
	plain, told := NewMachine(kb, DefaultBudget), NewMachine(kb, DefaultBudget)
	told.SetNoVM(false)
	if !plain.ProveAtom(goal) || !told.ProveAtom(goal) {
		t.Fatal("proof failed")
	}
	if plain.TotalInferences() != told.TotalInferences() || kb.Compilations() != 1 {
		t.Fatalf("after SetNoVM(false): %d inferences, a plain machine %d; %d compilations, want 1",
			told.TotalInferences(), plain.TotalInferences(), kb.Compilations())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetNoVM(true) did not panic")
		}
	}()
	told.SetNoVM(true)
}

// TestHeadStreamPassesOverSkip pins the run functions' side of the skip
// contract. An index lookup proves the skipped argument equal before a head
// stream runs, so comparing it again changes no answer, charge or binding:
// the prover oracle cannot see a run function that ignores skip. Here each is
// handed a goal that differs from the fact at skip alone, and must match it
// there and fail it without the skip.
func TestHeadStreamPassesOverSkip(t *testing.T) {
	kb := kbFrom(t, "a(k, 2.0, g(x)).")
	fact := logic.MustParseTerm("a(k, 2.0, g(x))")
	code := kb.program().predFor(fact).all.cands[0].head
	m := NewMachine(kb, DefaultBudget)
	for skip := range int32(3) {
		goal := fact
		goal.Args = append([]logic.Term(nil), fact.Args...)
		goal.Args[skip] = logic.MustParseTerm("zz")
		cache := make([]walked, len(goal.Args))
		for i, a := range goal.Args {
			cache[i] = walked{t: a}
		}
		for _, pass := range []int32{skip, -1} {
			runs := map[string]bool{
				"runEq":         m.runEq(code, pass, goal, 0),
				"runHead":       m.runHead(code, pass, goal, 0, 0, nil, 0),
				"runHeadCached": m.runHeadCached(code, pass, 0, cache),
			}
			for name, matched := range runs {
				if matched != (pass == skip) {
					t.Errorf("%s(%v, skip %d) against %v matched %v", name, goal, pass, fact, matched)
				}
			}
		}
	}
}
