package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/covering"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// makeTask builds a molecular task where activity has two latent causes:
// an oxygen atom, or a heavy (weight ≥ 30) atom. Enough examples that
// every partition keeps signal at p = 8.
func makeTask(t testing.TB) (*solve.KB, []logic.Term, []logic.Term, *mode.Set) {
	t.Helper()
	kb := solve.NewKB()
	var pos, neg []logic.Term
	id := 0
	add := func(elements []string, isPos bool) {
		id++
		mol := fmt.Sprintf("m%d", id)
		for i, el := range elements {
			atom := fmt.Sprintf("%s_a%d", mol, i)
			kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(%s, %s, %s)", mol, atom, el)))
		}
		e := logic.MustParseTerm(fmt.Sprintf("active(%s)", mol))
		if isPos {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	fillers := [][]string{
		{"carbon", "nitrogen"},
		{"carbon", "carbon", "nitrogen"},
		{"nitrogen"},
		{"carbon"},
	}
	for i := 0; i < 16; i++ {
		add(append([]string{"oxygen"}, fillers[i%4]...), true)
	}
	for i := 0; i < 16; i++ {
		heavy := "sulfur"
		if i%2 == 0 {
			heavy = "chlorine"
		}
		add(append([]string{heavy}, fillers[i%4]...), true)
	}
	for i := 0; i < 24; i++ {
		add(fillers[i%4], false)
	}
	ms := mode.MustParseSet(`
		modeh(1, active(+mol)).
		modeb('*', atm(+mol, -atomid, #element)).
	`)
	return kb, pos, neg, ms
}

func testConfig(p, width int) Config {
	return Config{
		Workers: p,
		Width:   width,
		Seed:    11,
		Search:  search.Settings{MaxClauseLen: 2, MinPrec: 0.8, NodesLimit: 500},
	}
}

func theoryCoversAll(t *testing.T, kb *solve.KB, theory []logic.Clause, pos []logic.Term) {
	t.Helper()
	m := solve.NewMachine(kb, solve.Budget{})
	for _, e := range pos {
		if !search.TheoryCovers(m, theory, e) {
			t.Fatalf("theory does not cover %s; theory: %v", e, theory)
		}
	}
}

func TestLearnSingleWorker(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	met, err := Learn(kb, pos, neg, ms, testConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
	if met.Epochs < 1 {
		t.Fatalf("epochs = %d", met.Epochs)
	}
	if met.RulesLearned == 0 {
		t.Fatal("no rules learned")
	}
}

// TestLearnLeavesNoGoroutines is the teardown leak check for Learn on the
// simulated cluster: once it returns, with or without recovery armed, no
// worker, master or network goroutine of the run may still be running.
func TestLearnLeavesNoGoroutines(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	for _, p := range []int{1, 4} {
		for _, rec := range []bool{false, true} {
			before := runtime.NumGoroutine()
			cfg := testConfig(p, 10)
			cfg.Recover = rec
			if _, err := Learn(kb, pos, neg, ms, cfg); err != nil {
				t.Fatalf("p=%d recover=%v: %v", p, rec, err)
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("p=%d recover=%v: %d goroutines before Learn, still %d a second after it returned:\n%s",
						p, rec, before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
			}
		}
	}
}

func TestLearnMultiWorkerCoversAll(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			kb, pos, neg, ms := makeTask(t)
			met, err := Learn(kb, pos, neg, ms, testConfig(p, 10))
			if err != nil {
				t.Fatal(err)
			}
			theoryCoversAll(t, kb, met.Theory, pos)
			if met.Workers != p {
				t.Fatalf("Workers = %d", met.Workers)
			}
			if met.CommBytes <= 0 || met.CommMessages <= 0 {
				t.Fatalf("communication not recorded: %+v", met)
			}
			if met.VirtualTime <= 0 || met.WallTime <= 0 {
				t.Fatalf("times not recorded: %+v", met)
			}
			if met.TotalInferences <= 0 || met.GeneratedRules <= 0 {
				t.Fatalf("work not recorded: %+v", met)
			}
		})
	}
}

func TestLearnDeterministic(t *testing.T) {
	kb1, pos1, neg1, ms1 := makeTask(t)
	kb2, pos2, neg2, ms2 := makeTask(t)
	m1, err := Learn(kb1, pos1, neg1, ms1, testConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Learn(kb2, pos2, neg2, ms2, testConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Theory) != len(m2.Theory) {
		t.Fatalf("theory sizes differ: %d vs %d", len(m1.Theory), len(m2.Theory))
	}
	for i := range m1.Theory {
		if m1.Theory[i].String() != m2.Theory[i].String() {
			t.Fatalf("rule %d differs:\n%s\n%s", i, m1.Theory[i], m2.Theory[i])
		}
	}
	if m1.Epochs != m2.Epochs {
		t.Fatalf("epochs differ: %d vs %d", m1.Epochs, m2.Epochs)
	}
	if m1.CommBytes != m2.CommBytes {
		t.Fatalf("comm bytes differ: %d vs %d", m1.CommBytes, m2.CommBytes)
	}
}

func TestDifferentSeedDifferentPartition(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(4, 10)
	m1, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	m2, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different partitions may learn different theories, but both must be
	// complete.
	theoryCoversAll(t, kb, m1.Theory, pos)
	theoryCoversAll(t, kb, m2.Theory, pos)
}

func TestWidthLimitReducesCommunication(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	unlimited, err := Learn(kb, pos, neg, ms, testConfig(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := Learn(kb, pos, neg, ms, testConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if narrow.CommBytes > unlimited.CommBytes {
		t.Fatalf("W=1 moved more bytes (%d) than nolimit (%d)", narrow.CommBytes, unlimited.CommBytes)
	}
	theoryCoversAll(t, kb, narrow.Theory, pos)
}

func TestParallelMatchesSequentialQuality(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	seqEx := search.NewExamples(pos, neg)
	seqRes, err := covering.Learn(kb, seqEx, ms, covering.Config{
		Search: search.Settings{MaxClauseLen: 2, MinPrec: 0.8, NodesLimit: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Learn(kb, pos, neg, ms, testConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	seqAcc := covering.Accuracy(kb, seqRes.Theory, pos, neg, solve.Budget{})
	parAcc := covering.Accuracy(kb, par.Theory, pos, neg, solve.Budget{})
	if seqAcc < 0.95 {
		t.Fatalf("sequential baseline accuracy too low: %v", seqAcc)
	}
	if parAcc < seqAcc-0.1 {
		t.Fatalf("parallel accuracy %v far below sequential %v", parAcc, seqAcc)
	}
}

func TestFallbackAdoptsUnlearnablePositive(t *testing.T) {
	kb := solve.NewKB()
	kb.AddFact(logic.MustParseTerm("atm(p1, a1, carbon)"))
	kb.AddFact(logic.MustParseTerm("atm(p2, a2, carbon)"))
	kb.AddFact(logic.MustParseTerm("atm(n1, b1, carbon)"))
	kb.AddFact(logic.MustParseTerm("atm(n2, b2, carbon)"))
	pos := []logic.Term{logic.MustParseTerm("active(p1)"), logic.MustParseTerm("active(p2)")}
	neg := []logic.Term{logic.MustParseTerm("active(n1)"), logic.MustParseTerm("active(n2)")}
	ms := mode.MustParseSet(`
		modeh(1, active(+mol)).
		modeb('*', atm(+mol, -atomid, #element)).
	`)
	cfg := testConfig(2, 10)
	cfg.Search.MinPrec = 0.95
	met, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if met.GroundFactsAdopted != 2 {
		t.Fatalf("GroundFactsAdopted = %d, want 2", met.GroundFactsAdopted)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
}

func TestConfigValidation(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	if _, err := Learn(kb, pos, neg, ms, Config{Workers: 0}); err == nil {
		t.Fatal("Workers=0 accepted")
	}
	if _, err := Learn(kb, nil, neg, ms, testConfig(2, 0)); err == nil {
		t.Fatal("no positives accepted")
	}
}

func TestTraceObservesPipelineHandOffs(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(3, 5)
	var mu sync.Mutex
	stageSends := 0
	cfg.Trace = func(e cluster.Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Type == cluster.EvSend && e.Kind == kindStage {
			stageSends++
		}
	}
	met, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Each epoch runs 3 pipelines × 2 hand-offs (stages 2 and 3).
	want := met.Epochs * 3 * 2
	if stageSends != want {
		t.Fatalf("stage hand-offs = %d, want %d (epochs=%d)", stageSends, want, met.Epochs)
	}
}

func TestEpochsShrinkWithMoreWorkers(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	m1, err := Learn(kb, pos, neg, ms, testConfig(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	m8, err := Learn(kb, pos, neg, ms, testConfig(8, 10))
	if err != nil {
		t.Fatal(err)
	}
	// More pipelines per epoch → at most as many epochs (paper Table 5).
	if m8.Epochs > m1.Epochs {
		t.Fatalf("epochs grew with workers: p=1 %d, p=8 %d", m1.Epochs, m8.Epochs)
	}
}
