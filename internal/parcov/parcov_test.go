package parcov

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bottom"
	"repro/internal/covering"
	"repro/internal/datasets"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

func smallTask(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds := datasets.PyrimidinesSized(48, 40, 9)
	// Keep unit tests quick: every generated rule costs a message round in
	// this baseline, so cap the per-search effort well below the dataset's
	// recommended benchmark setting.
	ds.Search.NodesLimit = 60
	ds.Search.MaxClauseLen = 2
	ds.Bottom.MaxLiterals = 40
	return ds
}

func TestLearnMatchesSequentialTheory(t *testing.T) {
	ds := smallTask(t)
	// Sequential baseline.
	ex := search.NewExamples(ds.Pos, ds.Neg)
	seq, err := covering.Learn(ds.KB, ex, ds.Modes, covering.Config{
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Parallel-coverage run: same search, distributed evaluation. The
	// search is semantically identical, so the theory must be identical.
	par, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, Config{
		Workers: 3, Seed: 5,
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Theory) != len(par.Theory) {
		t.Fatalf("theory sizes differ: seq %d vs par %d", len(seq.Theory), len(par.Theory))
	}
	for i := range seq.Theory {
		if seq.Theory[i].String() != par.Theory[i].String() {
			t.Fatalf("rule %d differs:\nseq: %s\npar: %s", i, seq.Theory[i], par.Theory[i])
		}
	}
}

func TestMetricsRecorded(t *testing.T) {
	ds := smallTask(t)
	met, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, Config{
		Workers: 4, Seed: 5,
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.CommMessages == 0 || met.CommBytes == 0 {
		t.Fatalf("communication not recorded: %+v", met)
	}
	if met.VirtualTime <= 0 || met.WallTime <= 0 {
		t.Fatalf("times not recorded: %+v", met)
	}
	if met.Searches == 0 || met.GeneratedRules == 0 {
		t.Fatalf("search stats not recorded: %+v", met)
	}
	// The coverage queries are batched per search frontier (one message
	// per worker per node expansion), so the message count must come in
	// well under the historical one-round-trip-per-generated-rule bill. A
	// run whose search saw no CoverageBatch — every candidate its own
	// one-rule query — learned this theory (SHA-256 of its rules, one per
	// line) from as many generated rules and inferences in 6 692 messages,
	// pinned as it read when parcov could still be built that way.
	const (
		sha        = "2cfdab08ce26be33abcfe229aa163e6dbfd25a772d7ddc97a1500358f280c565"
		generated  = 826
		inferences = 407856
		messages   = 820
	)
	var sb strings.Builder
	for _, c := range met.Theory {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != sha {
		t.Fatalf("theory %s, pinned %s:\n%s", got, sha, sb.String())
	}
	if met.GeneratedRules != generated || met.TotalInferences != inferences || met.CommMessages != messages {
		t.Fatalf("%d generated rules, %d inferences, %d messages; pinned %d, %d, %d",
			met.GeneratedRules, met.TotalInferences, met.CommMessages, generated, inferences, messages)
	}
}

func TestDeterministic(t *testing.T) {
	ds := smallTask(t)
	cfg := Config{Workers: 2, Seed: 5, Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget}
	m1, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Theory) != len(m2.Theory) || m1.CommBytes != m2.CommBytes {
		t.Fatalf("nondeterministic run: %d/%d rules, %d/%d bytes",
			len(m1.Theory), len(m2.Theory), m1.CommBytes, m2.CommBytes)
	}
}

func TestFallbackRetractsEverywhere(t *testing.T) {
	kb := solve.NewKB()
	kb.AddFact(logic.MustParseTerm("f(p1, a)"))
	kb.AddFact(logic.MustParseTerm("f(p2, a)"))
	kb.AddFact(logic.MustParseTerm("f(n1, a)"))
	pos := []logic.Term{logic.MustParseTerm("t(p1)"), logic.MustParseTerm("t(p2)")}
	neg := []logic.Term{logic.MustParseTerm("t(n1)")}
	ms := mode.MustParseSet(`
		modeh(1, t(+x)).
		modeb(1, f(+x, #v)).
	`)
	met, err := Learn(kb, pos, neg, ms, Config{
		Workers: 2, Seed: 1,
		Search: search.Settings{MinPrec: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.GroundFactsAdopted != 2 {
		t.Fatalf("GroundFactsAdopted = %d, want 2", met.GroundFactsAdopted)
	}
}

func TestConfigValidation(t *testing.T) {
	ds := smallTask(t)
	if _, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, Config{Workers: 0}); err == nil {
		t.Fatal("Workers=0 accepted")
	}
	if _, err := Learn(ds.KB, nil, ds.Neg, ds.Modes, Config{Workers: 2}); err == nil {
		t.Fatal("empty positives accepted")
	}
}

// (modes helper removed: tests use mode.MustParseSet directly)

func TestMoreWorkersSameTheory(t *testing.T) {
	ds := smallTask(t)
	var prev []logic.Clause
	for _, p := range []int{1, 2, 5} {
		met, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, Config{
			Workers: p, Seed: 3, Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if prev != nil {
			if len(met.Theory) != len(prev) {
				t.Fatalf("p=%d: theory size changed: %d vs %d", p, len(met.Theory), len(prev))
			}
			for i := range prev {
				if met.Theory[i].String() != prev[i].String() {
					t.Fatalf("p=%d: rule %d changed", p, i)
				}
			}
		}
		prev = met.Theory
	}
}

// TestLearnLeavesNoGoroutines: Learn starts nothing but its simulated
// worker nodes and waits for them, so the goroutine count must come back to
// its pre-call value once it returns.
func TestLearnLeavesNoGoroutines(t *testing.T) {
	ds := smallTask(t)
	for _, p := range []int{1, 4} {
		before := runtime.NumGoroutine()
		if _, err := Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, Config{
			Workers: p, Seed: 5, Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		n := runtime.NumGoroutine()
		for i := 0; i < 200 && n > before; i++ {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("p=%d: %d goroutines before Learn, still %d a second after it returned", p, before, n)
		}
	}
}

// scribbler overwrites every rule it was asked about once the call has
// returned, as LearnRule's next node expansion overwrites the literal arena
// its frontier rules live in: a coverer that kept a rule past the call would
// then answer for another.
type scribbler struct{ search.Coverer }

func (s scribbler) Coverage(rule *logic.Clause, posCand, negCand search.Bitset) (search.Bitset, search.Bitset) {
	pos, neg := s.Coverer.Coverage(rule, posCand, negCand)
	scribble(rule)
	return pos, neg
}

func (s scribbler) CoverageBatch(rules []*logic.Clause, posCands, negCands []search.Bitset) []search.CoverResult {
	out := search.CoverageBatchOf(s.Coverer, rules, posCands, negCands)
	for _, r := range rules {
		scribble(r)
	}
	return out
}

func scribble(r *logic.Clause) {
	r.Head = logic.Comp("scribbled", logic.V(0))
	for i := range r.Body {
		r.Body[i] = logic.Literal{Neg: i%2 == 0, Atom: logic.Comp("scribbled", logic.V(i))}
	}
}

// TestCoverersDoNotRetainRules: a coverer borrows the rules of a call
// (search.Coverer). LearnRule — from the empty rule, then from the first
// search's rules as seeds — returns the same result over the serial
// Evaluator, a ParallelEvaluator and this package's distributed coverer
// whether or not every rule is scribbled over once its call returns. The
// test lives here because this is the one package that reaches all three.
func TestCoverersDoNotRetainRules(t *testing.T) {
	ds := datasets.CarcinogenesisSized(30, 26, 1)
	ds.Search.NodesLimit = 150
	bot, err := bottom.Construct(solve.NewMachine(ds.KB, ds.Budget), ds.Modes, ds.Pos[0], ds.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	ex := search.NewExamples(ds.Pos, ds.Neg)
	search2 := func(cov search.Coverer) string {
		first := search.LearnRule(cov, bot, nil, ds.Search)
		var seeds [][]int32
		for _, c := range first.Good {
			seeds = append(seeds, c.Indices)
		}
		second := search.LearnRule(cov, bot, seeds, ds.Search)
		var b strings.Builder
		for _, r := range []*search.Result{first, second} {
			fmt.Fprintf(&b, "generated %d exhausted %v\n", r.Generated, r.ExhaustedNodes)
			for _, c := range r.Good {
				fmt.Fprintf(&b, "%v %d/%d %v %v %v\n", c.Indices, c.Pos, c.Neg, c.Score, c.PosCover(), c.NegCover())
			}
		}
		return b.String()
	}
	for _, c := range []struct {
		name string
		run  func(wrap func(search.Coverer) search.Coverer) string
	}{
		{"Evaluator", func(wrap func(search.Coverer) search.Coverer) string {
			return search2(wrap(search.NewEvaluator(solve.NewMachine(ds.KB, ds.Budget), ex)))
		}},
		{"ParallelEvaluator", func(wrap func(search.Coverer) search.Coverer) string {
			pe := search.NewParallelEvaluator(ds.KB, ex, ds.Budget, 3)
			defer pe.Close()
			return search2(wrap(pe))
		}},
		{"distCoverer", func(wrap func(search.Coverer) search.Coverer) string {
			_, dc, workers := newCluster(ds.KB, ds.Pos, ds.Neg, Config{Workers: 3, Seed: 5, Search: ds.Search, Budget: ds.Budget})
			errs := make(chan error, len(workers))
			for _, w := range workers {
				go func() { errs <- w.run() }()
			}
			got := search2(wrap(dc))
			if err := dc.node.Broadcast(dc.targets, kindStop, stopMsg{}); err != nil {
				t.Fatal(err)
			}
			for range workers {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if dc.err != nil {
				t.Fatal(dc.err)
			}
			return got
		}},
	} {
		want := c.run(func(cov search.Coverer) search.Coverer { return cov })
		if got := c.run(func(cov search.Coverer) search.Coverer { return scribbler{cov} }); got != want {
			t.Fatalf("%s: scribbling over returned rules changed the search:\n%s\nwithout scribbling:\n%s", c.name, got, want)
		}
		if !strings.Contains(want, "/") {
			t.Fatalf("%s: the searches kept no rule", c.name)
		}
	}
}
