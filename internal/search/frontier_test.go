package search_test

import (
	"fmt"
	"testing"

	"repro/internal/bottom"
	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
)

// The tests here run the serial evaluator's packed CoverageBatch on
// frontiers a real search produced, so they live outside the package: the
// datasets import search.

// frontier is one CoverageBatch call as LearnRule issued it.
type frontier struct {
	clauses  []logic.Clause
	pos, neg []search.Bitset
}

func (f *frontier) rules() []*logic.Clause {
	out := make([]*logic.Clause, len(f.clauses))
	for i := range f.clauses {
		out[i] = &f.clauses[i]
	}
	return out
}

// recorder keeps every frontier that passes through it. The rules are copied
// (LearnRule reuses their storage), the masks are kept as they are: their
// identity across siblings is what the evaluator groups on.
type recorder struct {
	search.FullCoverer
	frontiers []frontier
}

func (r *recorder) CoverageBatch(rules []*logic.Clause, posCands, negCands []search.Bitset) []search.CoverResult {
	f := frontier{pos: append([]search.Bitset(nil), posCands...), neg: append([]search.Bitset(nil), negCands...)}
	for _, c := range rules {
		f.clauses = append(f.clauses, *c)
	}
	r.frontiers = append(r.frontiers, f)
	return search.CoverageBatchOf(r.FullCoverer, rules, posCands, negCands)
}

// realFrontiers saturates the dataset's first positive and records the first
// nodes frontiers of the search over its bottom clause.
func realFrontiers(tb testing.TB, ds *datasets.Dataset, nodes int) (*search.Examples, []frontier) {
	tb.Helper()
	m := solve.NewMachine(ds.KB, ds.Budget)
	bot, err := bottom.Construct(m, ds.Modes, ds.Pos[0], ds.Bottom)
	if err != nil {
		tb.Fatal(err)
	}
	ex := search.NewExamples(ds.Pos, ds.Neg)
	rec := &recorder{FullCoverer: search.NewEvaluator(m, ex)}
	st := ds.Search
	st.NodesLimit = nodes
	search.LearnRule(rec, bot, nil, st)
	return ex, rec.frontiers
}

// withParentOf returns the first recorded frontier whose parent has n body
// literals and at least min children.
func withParentOf(tb testing.TB, fs []frontier, n, min int) *frontier {
	tb.Helper()
	for i := range fs {
		if len(fs[i].clauses) >= min && len(fs[i].clauses[0].Body) == n+1 {
			return &fs[i]
		}
	}
	tb.Fatalf("no frontier of ≥ %d children under a %d-literal parent among %d recorded", min, n, len(fs))
	return nil
}

// perRule hides CoverageBatch, so CoverageBatchOf proves rule by rule.
type perRule struct{ search.Coverer }

// TestPackedFrontierBudgets runs real pyrimidines and carcinogenesis
// frontiers, packed and rule by rule, under budgets from "nearly every proof
// is cut off" to "none is": bits, TotalInferences and CutoffQueries must
// agree at every setting. Together the settings send thousands of queries
// and pack members to exact mode.
func TestPackedFrontierBudgets(t *testing.T) {
	for _, ds := range []*datasets.Dataset{datasets.PyrimidinesSized(120, 100, 1), datasets.CarcinogenesisSized(80, 70, 1)} {
		ex, fs := realFrontiers(t, ds, 400)
		picked := []*frontier{withParentOf(t, fs, 1, 4), withParentOf(t, fs, 2, 4)}
		var cutoffs, steps, charged int64
		for _, maxInf := range []int64{3, 5, 8, 13, 21, 40, 80, 200, 0} {
			for _, maxDepth := range []int{1, 2, 64} {
				budget := solve.Budget{MaxInferences: maxInf, MaxDepth: maxDepth}
				for _, f := range picked {
					mp, mr := solve.NewMachine(ds.KB, budget), solve.NewMachine(ds.KB, budget)
					got := search.NewEvaluator(mp, ex).CoverageBatch(f.rules(), f.pos, f.neg)
					want := search.CoverageBatchOf(perRule{search.NewEvaluator(mr, ex)}, f.rules(), f.pos, f.neg)
					for i := range want {
						if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
							t.Fatalf("%s budget %+v: %s\n packed %v\nper rule %v", ds.Name, budget, f.clauses[i].String(), got[i], want[i])
						}
					}
					if mp.TotalInferences() != mr.TotalInferences() || mp.CutoffQueries() != mr.CutoffQueries() {
						t.Fatalf("%s budget %+v, %d children of a %d-literal parent: packed charged %d with %d cutoffs, per rule %d with %d",
							ds.Name, budget, len(f.clauses), len(f.clauses[0].Body)-1,
							mp.TotalInferences(), mp.CutoffQueries(), mr.TotalInferences(), mr.CutoffQueries())
					}
					cutoffs += mp.CutoffQueries()
					if maxInf == 0 && maxDepth == 64 {
						steps, charged = steps+mp.StepsExecuted(), charged+mp.TotalInferences()
					}
				}
			}
		}
		if cutoffs < 1000 {
			t.Errorf("%s: only %d cutoff queries over all settings", ds.Name, cutoffs)
		}
		if steps*4 > charged*3 {
			t.Errorf("%s: unbounded, the packed frontiers executed %d steps for %d charged — expected under 75%%", ds.Name, steps, charged)
		}
	}
}

// BenchmarkCoverageBatchFrontier is the pack's own number: one real
// pyrimidines frontier — the children of a two-literal parent under the
// parent's masks — evaluated as LearnRule does (packed) and rule by rule.
// steps/op is what the prover executed, charged/op what it billed; the two
// coincide on the per-rule side.
func BenchmarkCoverageBatchFrontier(b *testing.B) {
	ds := datasets.PyrimidinesSized(212, 191, 1)
	ex, fs := realFrontiers(b, ds, 400)
	f := withParentOf(b, fs, 2, 8)
	rules := f.rules()
	for _, bc := range []struct {
		name string
		wrap func(*search.Evaluator) search.Coverer
	}{
		{"packed", func(ev *search.Evaluator) search.Coverer { return ev }},
		{"perrule", func(ev *search.Evaluator) search.Coverer { return perRule{ev} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := solve.NewMachine(ds.KB, ds.Budget)
			ev := bc.wrap(search.NewEvaluator(m, ex))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := search.CoverageBatchOf(ev, rules, f.pos, f.neg); len(res) != len(rules) {
					b.Fatal("short result")
				}
			}
			b.ReportMetric(float64(m.StepsExecuted())/float64(b.N), "steps/op")
			b.ReportMetric(float64(m.TotalInferences())/float64(b.N), "charged/op")
			b.ReportMetric(float64(len(rules)), "rules")
		})
	}
}

// TestGroundCallMemoOnFrontier pins what the ground-call memo does on the
// workload it was built for: the children of a pyrimidines search node end
// in threshold tests such as polar_gte(G, 3) on groups every drug shares, so
// a large share of what their coverage is charged is replayed rather than
// run — while bits, charges and cutoffs stay the interpreter's.
func TestGroundCallMemoOnFrontier(t *testing.T) {
	ds := datasets.PyrimidinesSized(212, 191, 1)
	ex, fs := realFrontiers(t, ds, 400)
	vm, interp := solve.NewMachine(ds.KB, ds.Budget), solve.NewMachine(ds.KB, ds.Budget)
	interp.SetNoVM(true)
	evVM, evInterp := search.NewEvaluator(vm, ex), search.NewEvaluator(interp, ex)
	for _, f := range fs {
		got := evVM.CoverageBatch(f.rules(), f.pos, f.neg)
		want := evInterp.CoverageBatch(f.rules(), f.pos, f.neg)
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("%s: VM %v, interpreter %v", f.clauses[i].String(), got[i], want[i])
			}
		}
	}
	if vm.TotalInferences() != interp.TotalInferences() || vm.CutoffQueries() != interp.CutoffQueries() {
		t.Fatalf("VM charged %d inferences with %d cutoffs, interpreter %d with %d",
			vm.TotalInferences(), vm.CutoffQueries(), interp.TotalInferences(), interp.CutoffQueries())
	}
	if interp.ReplayedInferences() != 0 {
		t.Fatalf("the interpreter reports %d replayed inferences", interp.ReplayedInferences())
	}
	if vm.NoVM() {
		return // ILP_NOVM: both machines are the interpreter
	}
	replayed, charged := vm.ReplayedInferences(), vm.TotalInferences()
	if 10*replayed < 3*charged {
		t.Errorf("%d of %d charged inferences were replayed over %d frontiers, expected at least 30 %%", replayed, charged, len(fs))
	}
	t.Logf("%d of %d charged inferences replayed (%.1f %%) over %d frontiers", replayed, charged, 100*float64(replayed)/float64(charged), len(fs))
}

// TestCandidateFilterOnTrueConcept pins what the VM's candidate filter does
// on the workload it was built for: the carcinogenesis target rules walk the
// per-drug atm/5 and bond/4 buckets with an element or bond-type constant in
// the goal, so most of the candidates they are charged for cannot match and
// are never run — while bits, charges and cutoffs stay the interpreter's.
func TestCandidateFilterOnTrueConcept(t *testing.T) {
	ds := datasets.Carcinogenesis(1)
	ex := search.NewExamples(ds.Pos, ds.Neg)
	if n := len(ds.Pos) + len(ds.Neg); n != 298 {
		t.Fatalf("carcinogenesis has %d examples, want 298", n)
	}
	vm, interp := solve.NewMachine(ds.KB, ds.Budget), solve.NewMachine(ds.KB, ds.Budget)
	interp.SetNoVM(true)
	evVM, evInterp := search.NewEvaluator(vm, ex), search.NewEvaluator(interp, ex)
	for i := range ds.TrueConcept {
		rule := &ds.TrueConcept[i]
		gotPos, gotNeg := evVM.CoverageFull(rule)
		wantPos, wantNeg := evInterp.CoverageFull(rule)
		if fmt.Sprint(gotPos, gotNeg) != fmt.Sprint(wantPos, wantNeg) {
			t.Fatalf("%s: VM covers %v / %v, interpreter %v / %v", rule.String(), gotPos, gotNeg, wantPos, wantNeg)
		}
	}
	if vm.TotalInferences() != interp.TotalInferences() || vm.CutoffQueries() != interp.CutoffQueries() {
		t.Fatalf("VM charged %d inferences with %d cutoffs, interpreter %d with %d",
			vm.TotalInferences(), vm.CutoffQueries(), interp.TotalInferences(), interp.CutoffQueries())
	}
	if interp.FilteredCandidates() != 0 {
		t.Fatalf("the interpreter reports %d filtered candidates", interp.FilteredCandidates())
	}
	if vm.NoVM() {
		return // ILP_NOVM: both machines are the interpreter
	}
	// Every candidate visit is a charged inference (the rest are goal
	// steps), so half of the charge is more than half of the visits.
	if filtered, charged := vm.FilteredCandidates(), vm.TotalInferences(); 2*filtered <= charged {
		t.Errorf("%d of %d charged inferences were filtered candidates, expected more than half", filtered, charged)
	}
}
