package search_test

import (
	"fmt"
	"slices"
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
		f.clauses = append(f.clauses, logic.Clause{Head: c.Head, Body: slices.Clone(c.Body)})
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
// is cut off" to "none is": bits, TotalInferences and CutoffQueries must be
// those of proving each rule alone at every setting. Together the settings
// send thousands of queries and pack members to exact mode.
func TestPackedFrontierBudgets(t *testing.T) {
	for _, ds := range []*datasets.Dataset{datasets.PyrimidinesSized(120, 100, 1), datasets.CarcinogenesisSized(80, 70, 1)} {
		ex, fs := realFrontiers(t, ds, 400)
		picked := []*frontier{withParentOf(t, fs, 1, 4), withParentOf(t, fs, 2, 4)}
		var cutoffs, steps, charged int64
		for _, maxInf := range []int64{3, 5, 8, 13, 21, 40, 80, 200, 0} {
			for _, maxDepth := range []int{1, 2, 64} {
				budget := solve.Budget{MaxInferences: maxInf, MaxDepth: maxDepth}
				for _, f := range picked {
					r, pr := search.NewRig(t, ds.KB, ex, budget), search.NewRig(t, ds.KB, ex, budget)
					pr.Cov = perRule{pr.Ev}
					name := fmt.Sprintf("%s budget %+v, %d children of a %d-literal parent", ds.Name, budget, len(f.clauses), len(f.clauses[0].Body)-1)
					r.Batch(name+", packed", f.rules(), f.pos, f.neg)
					pr.Batch(name+", rule by rule", f.rules(), f.pos, f.neg)
					mp := r.Ev.M
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
// parent's masks — evaluated as LearnRule does (packed) and rule by rule,
// each on a fresh evaluator, whose memo knows no answer yet. steps/op is
// what the prover executed, charged/op what it billed; the two coincide on
// the per-rule side. The memo row asks again on a warm evaluator: every
// answer is replayed, and nothing may be allocated for it.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := bc.wrap(search.NewEvaluator(m, ex))
				if res := search.CoverageBatchOf(ev, rules, f.pos, f.neg); len(res) != len(rules) {
					b.Fatal("short result")
				}
			}
			b.ReportMetric(float64(m.StepsExecuted())/float64(b.N), "steps/op")
			b.ReportMetric(float64(m.TotalInferences())/float64(b.N), "charged/op")
			b.ReportMetric(float64(len(rules)), "rules")
		})
	}
	b.Run("memo", func(b *testing.B) {
		m := solve.NewMachine(ds.KB, ds.Budget)
		ev := search.NewEvaluator(m, ex)
		out := make([]search.CoverResult, len(rules))
		for i := range out {
			out[i] = search.CoverResult{Pos: search.NewBitset(len(ex.Pos)), Neg: search.NewBitset(len(ex.Neg))}
		}
		ev.CoverBatchInto(out, rules, f.pos, f.neg)
		m.ResetCounters()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range out {
				clear(out[j].Pos)
				clear(out[j].Neg)
			}
			ev.CoverBatchInto(out, rules, f.pos, f.neg)
		}
		b.ReportMetric(float64(m.StepsExecuted())/float64(b.N), "steps/op")
		b.ReportMetric(float64(m.TotalInferences())/float64(b.N), "charged/op")
		b.ReportMetric(float64(len(rules)), "rules")
	})
}

// TestGroundCallMemoOnFrontier pins what the ground-call memo does on the
// workload it was built for: the children of a pyrimidines search node end
// in threshold tests such as polar_gte(G, 3) on groups every drug shares, so
// a large share of what their coverage is charged is replayed rather than
// run — while bits, charges and cutoffs stay those of proving each rule
// alone.
func TestGroundCallMemoOnFrontier(t *testing.T) {
	ds := datasets.PyrimidinesSized(212, 191, 1)
	ex, fs := realFrontiers(t, ds, 400)
	r := search.NewRig(t, ds.KB, ex, ds.Budget)
	for _, f := range fs {
		r.Batch(f.clauses[0].String(), f.rules(), f.pos, f.neg)
	}
	vm := r.Ev.M
	replayed, charged := vm.ReplayedInferences(), vm.TotalInferences()
	if 10*replayed < 3*charged {
		t.Errorf("%d of %d charged inferences were replayed over %d frontiers, expected at least 30 %%", replayed, charged, len(fs))
	}
	t.Logf("%d of %d charged inferences replayed (%.1f %%) over %d frontiers", replayed, charged, 100*float64(replayed)/float64(charged), len(fs))
}

// coverAll runs the sequential covering loop (internal/covering's, which
// the datasets' import of search keeps out of reach here) with every search
// scoring its candidates through wrap(ev), and returns the theory.
func coverAll(tb testing.TB, ds *datasets.Dataset, m *solve.Machine, wrap func(*search.Evaluator) search.Coverer) []string {
	tb.Helper()
	ex := search.NewExamples(ds.Pos, ds.Neg)
	cov := wrap(search.NewEvaluator(m, ex))
	var theory []string
	for ex.NumPosAlive() > 0 {
		seed := ex.FirstAlivePos()
		bot, err := bottom.Construct(m, ds.Modes, ex.Pos[seed], ds.Bottom)
		if err != nil {
			tb.Fatal(err)
		}
		best := search.LearnRule(cov, bot, nil, ds.Search).Best()
		if best == nil || best.PosCover().Empty() {
			single := search.NewBitset(len(ex.Pos))
			single.Set(seed)
			ex.RetractPos(single)
			theory = append(theory, ex.Pos[seed].String())
			continue
		}
		theory = append(theory, best.Materialize(bot).String())
		ex.RetractPos(best.PosCover())
	}
	return theory
}

// TestCoverageMemoOnPyrimidinesCovering is the coverage memo's tripwire on
// the workload it was built for: a pyrimidines covering run's searches meet
// most of their candidates again, up to renaming, in later searches. The
// reference run proves every question alone (search.Alone). Proved rule by
// rule, at least half of what the run is charged must be whole coverage
// queries the evaluator answered from its memo (its own count of what it
// replayed through solve.Machine.ReplayQuery), and executed plus replayed
// steps must be the charge. That run and the packed one must learn the
// reference's theory for its charge.
func TestCoverageMemoOnPyrimidinesCovering(t *testing.T) {
	ds := datasets.PyrimidinesSized(67, 60, 1)
	ref := solve.NewMachine(ds.KB, ds.Budget)
	want := coverAll(t, ds, ref, func(ev *search.Evaluator) search.Coverer { return search.Alone{M: ev.M, Ex: ev.Ex} })
	var perRuleEv *search.Evaluator
	perRuleCov := func(ev *search.Evaluator) search.Coverer { perRuleEv = ev; return perRule{ev} }
	for _, c := range []struct {
		name string
		wrap func(*search.Evaluator) search.Coverer
	}{
		{"rule by rule", perRuleCov},
		{"packed", func(ev *search.Evaluator) search.Coverer { return ev }},
	} {
		m := solve.NewMachine(ds.KB, ds.Budget)
		if got := coverAll(t, ds, m, c.wrap); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: theory %v, proved alone %v", c.name, got, want)
		}
		if m.TotalInferences() != ref.TotalInferences() || m.CutoffQueries() != ref.CutoffQueries() {
			t.Fatalf("%s: charged %d with %d cutoffs, proved alone %d with %d", c.name, m.TotalInferences(), m.CutoffQueries(), ref.TotalInferences(), ref.CutoffQueries())
		}
		if steps := m.StepsExecuted() + m.ReplayedInferences(); c.name != "packed" && steps != m.TotalInferences() {
			t.Fatalf("%s: %d steps executed and replayed for %d charged", c.name, steps, m.TotalInferences())
		}
	}
	replayed, charged := perRuleEv.MemoReplayed(), ref.TotalInferences()
	if 2*replayed < charged {
		t.Errorf("%d of %d charged inferences were replayed coverage queries, expected at least half", replayed, charged)
	}
	t.Logf("%d of %d charged inferences replayed (%.1f %%) over %d rules", replayed, charged, 100*float64(replayed)/float64(charged), len(want))
}

// TestCandidateFilterOnTrueConcept pins what the VM's candidate filter does
// on the workload it was built for: the carcinogenesis target rules walk the
// per-drug atm/5 and bond/4 buckets with an element or bond-type constant in
// the goal, so most of the candidates they are charged for cannot match and
// are never run — while bits, charges and cutoffs stay those of proving each
// rule alone.
func TestCandidateFilterOnTrueConcept(t *testing.T) {
	ds := datasets.Carcinogenesis(1)
	ex := search.NewExamples(ds.Pos, ds.Neg)
	if n := len(ds.Pos) + len(ds.Neg); n != 298 {
		t.Fatalf("carcinogenesis has %d examples, want 298", n)
	}
	r := search.NewRig(t, ds.KB, ex, ds.Budget)
	for i := range ds.TrueConcept {
		r.Full(ds.TrueConcept[i].String(), &ds.TrueConcept[i])
	}
	vm := r.Ev.M
	// Every candidate visit is a charged inference (the rest are goal
	// steps), so half of the charge is more than half of the visits.
	if filtered, charged := vm.FilteredCandidates(), vm.TotalInferences(); 2*filtered <= charged {
		t.Errorf("%d of %d charged inferences were filtered candidates, expected more than half", filtered, charged)
	}
}

// TestCoverageMemoKeepsExpensiveProofs: carcinogenesis proofs are long enough
// that some charge more than a memo slab byte holds, and the memo keeps those
// too. Every frontier of a search, asked twice of one evaluator, matches
// proving each question alone — bits, charges and cutoffs — and the second
// pass executes nothing: between clears no uncut proof is proved twice.
func TestCoverageMemoKeepsExpensiveProofs(t *testing.T) {
	ds := datasets.CarcinogenesisSized(40, 34, 1)
	ex, fs := realFrontiers(t, ds, 300)
	r := search.NewRig(t, ds.KB, ex, ds.Budget)
	for pass := range 2 {
		var steps int64
		for _, f := range fs {
			steps += r.Batch(fmt.Sprintf("pass %d, %s", pass, f.clauses[0].String()), f.rules(), f.pos, f.neg)
		}
		if pass == 1 && steps != 0 {
			t.Fatalf("the second pass over %d frontiers executed %d steps", len(fs), steps)
		}
	}
	if n := r.Ev.M.CutoffQueries(); n != 0 {
		t.Fatalf("%d proofs were cut off; the test needs every proof uncut", n)
	}
	if r.Ev.MemoOverflows() == 0 {
		t.Fatal("no proof charged more than a slab byte holds")
	}
	t.Logf("%d frontiers, %d answers in the overflow table", len(fs), r.Ev.MemoOverflows())
}
