package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// learnWithChaos is Learn's wiring on makeTask with the network exposed,
// so a test can kill a worker at a precise protocol point via the trace
// hook.
func learnWithChaos(t *testing.T, p int, cfg Config, chaos func(nw *cluster.Network, e cluster.Event)) (*Metrics, error) {
	t.Helper()
	kb, pos, neg, ms := makeTask(t)
	return learnTaskWithChaos(t, kb, pos, neg, ms, p, cfg, chaos)
}

// learnTaskWithChaos is learnWithChaos over an explicit task.
func learnTaskWithChaos(t *testing.T, kb *solve.KB, pos, neg []logic.Term, ms *mode.Set, p int, cfg Config, chaos func(nw *cluster.Network, e cluster.Event)) (*Metrics, error) {
	t.Helper()
	cfg = cfg.withDefaults()
	posParts, negParts := splitExamples(pos, neg, p, cfg.Seed)
	nw := cluster.NewNetwork(p+1, cfg.Cost)
	nw.SetTrace(func(e cluster.Event) { chaos(nw, e) })

	workers := make([]*worker, p)
	for k := 1; k <= p; k++ {
		workers[k-1] = newWorker(k, p, nw.Node(k), kb, search.NewExamples(posParts[k-1], negParts[k-1]), ms, cfg)
	}
	metrics := &Metrics{Workers: p, Width: cfg.Width}
	ma := newMaster(nw.Node(0), p, cfg, metrics, len(pos), posParts, negParts)

	errCh := make(chan error, p+1)
	var wg sync.WaitGroup
	wg.Add(p)
	for _, w := range workers {
		go func(w *worker) {
			defer wg.Done()
			if err := w.run(); err != nil {
				errCh <- err
				if cfg.Recover {
					nw.Kill(w.id)
				} else {
					nw.Shutdown()
				}
			}
		}(w)
	}
	masterErr := ma.run()
	if masterErr != nil {
		nw.Shutdown()
	}
	wg.Wait()
	close(errCh)
	if masterErr != nil {
		return nil, masterErr
	}
	if !cfg.Recover {
		for err := range errCh {
			if err != nil {
				return nil, err
			}
		}
	}
	metrics.Theory = ma.theory
	metrics.VirtualTime = nw.Makespan().Duration()
	return metrics, nil
}

// TestRecoverFromWorkerDeathMidEpoch is the simulated chaos test: worker 2
// of 3 is killed mid-epoch — right as the master broadcasts the first bag
// evaluation, so a gather is provably in flight — and the run must
// complete on the survivors with a valid theory and Recoveries ≥ 1.
func TestRecoverFromWorkerDeathMidEpoch(t *testing.T) {
	cfg := testConfig(3, 10)
	cfg.Recover = true
	cfg.RecvTimeout = 30 * time.Second
	var once sync.Once
	met, err := learnWithChaos(t, 3, cfg, func(nw *cluster.Network, e cluster.Event) {
		if e.Type == cluster.EvSend && e.Node == 0 && e.Kind == kindEvaluate {
			once.Do(func() { nw.Kill(2) })
		}
	})
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if met.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want ≥ 1", met.Recoveries)
	}
	if met.LostWorkers != 1 {
		t.Fatalf("LostWorkers = %d, want 1", met.LostWorkers)
	}
	// Every positive must still be covered or adopted: the dead worker's
	// partition was redistributed and re-learned on the survivors.
	kb, pos, _, _ := makeTask(t)
	theoryCoversAll(t, kb, met.Theory, pos)
}

// TestRecoverFromDeathDuringPipelines kills the worker while pipelines are
// running (first stage hand-off), exercising lost-pipeline recovery: the
// master never receives the dead worker's rules and must re-issue.
func TestRecoverFromDeathDuringPipelines(t *testing.T) {
	cfg := testConfig(3, 10)
	cfg.Recover = true
	cfg.RecvTimeout = 30 * time.Second
	var once sync.Once
	met, err := learnWithChaos(t, 3, cfg, func(nw *cluster.Network, e cluster.Event) {
		if e.Type == cluster.EvSend && e.Kind == kindStage {
			once.Do(func() { nw.Kill(3) })
		}
	})
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if met.Recoveries < 1 || met.LostWorkers != 1 {
		t.Fatalf("Recoveries = %d LostWorkers = %d", met.Recoveries, met.LostWorkers)
	}
	kb, pos, _, _ := makeTask(t)
	theoryCoversAll(t, kb, met.Theory, pos)
}

// TestRecoverSurvivesTwoDeaths loses two of four workers at different
// protocol points and still requires a complete theory.
func TestRecoverSurvivesTwoDeaths(t *testing.T) {
	cfg := testConfig(4, 10)
	cfg.Recover = true
	cfg.RecvTimeout = 30 * time.Second
	var kills atomic.Int64
	met, err := learnWithChaos(t, 4, cfg, func(nw *cluster.Network, e cluster.Event) {
		if e.Type != cluster.EvSend || e.Node != 0 {
			return
		}
		if e.Kind == kindEvaluate && kills.CompareAndSwap(0, 1) {
			nw.Kill(2)
		}
		if e.Kind == kindMarkCovered && kills.CompareAndSwap(1, 2) {
			nw.Kill(4)
		}
	})
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if met.LostWorkers != 2 {
		t.Fatalf("LostWorkers = %d, want 2", met.LostWorkers)
	}
	if met.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want ≥ 1", met.Recoveries)
	}
	kb, pos, _, _ := makeTask(t)
	theoryCoversAll(t, kb, met.Theory, pos)
}

// TestRecoverDeathDuringAdoptFallbackLosesNothing pins the late-adoption
// rule: a worker dies the instant the adopt fallback is broadcast, so the
// survivors' adoptions — already retracted locally — come back tagged
// with an epoch the recovery has abandoned. The master must still admit
// them into the theory (acceptStale), or those positives would end up
// neither covered nor adopted.
func TestRecoverDeathDuringAdoptFallbackLosesNothing(t *testing.T) {
	kb, pos, neg, ms := makeUnlearnableTask()
	cfg := testConfig(3, 10)
	cfg.Search.MinPrec = 0.95
	cfg.Recover = true
	cfg.RecvTimeout = 30 * time.Second
	var once sync.Once
	met, err := learnTaskWithChaos(t, kb, pos, neg, ms, 3, cfg, func(nw *cluster.Network, e cluster.Event) {
		if e.Type == cluster.EvSend && e.Node == 0 && e.Kind == kindAdopt {
			once.Do(func() { nw.Kill(3) })
		}
	})
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if met.Recoveries < 1 || met.LostWorkers != 1 {
		t.Fatalf("Recoveries = %d LostWorkers = %d", met.Recoveries, met.LostWorkers)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
	if met.GroundFactsAdopted < len(pos) {
		t.Fatalf("GroundFactsAdopted = %d, want ≥ %d", met.GroundFactsAdopted, len(pos))
	}
}

// makeUnlearnableTask: every epoch's bag is empty, so progress comes from
// adoption alone (same construction as
// TestFallbackAdoptsUnlearnablePositive, sized for three workers).
func makeUnlearnableTask() (*solve.KB, []logic.Term, []logic.Term, *mode.Set) {
	kb := solve.NewKB()
	var pos, neg []logic.Term
	for i := 1; i <= 6; i++ {
		kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(p%d, a%d, carbon)", i, i)))
		kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(n%d, b%d, carbon)", i, i)))
		pos = append(pos, logic.MustParseTerm(fmt.Sprintf("active(p%d)", i)))
		neg = append(neg, logic.MustParseTerm(fmt.Sprintf("active(n%d)", i)))
	}
	ms := mode.MustParseSet(`
		modeh(1, active(+mol)).
		modeb('*', atm(+mol, -atomid, #element)).
	`)
	return kb, pos, neg, ms
}

// TestRecoverDeathAfterFirstAdoptionReplyLosesNothing is the other half of
// the late-adoption rule: a worker dies after the master has already taken
// a sibling's kindAdopted off the wire. That reply is neither late nor
// stale — it sits in the adoption ledger when the wait aborts — and its
// example is retracted on its worker, so the abort must settle it into
// the theory rather than drop it with the phase. Both placements of the
// wait are covered: overlapped with the next epoch's gather (boundary
// idle) and at the barrier (a Publish hook observes the boundary).
func TestRecoverDeathAfterFirstAdoptionReplyLosesNothing(t *testing.T) {
	for _, barrier := range []bool{false, true} {
		t.Run(fmt.Sprintf("barrier=%v", barrier), func(t *testing.T) {
			kb, pos, neg, ms := makeUnlearnableTask()
			cfg := testConfig(3, 10)
			cfg.Search.MinPrec = 0.95
			cfg.Recover = true
			cfg.RecvTimeout = 30 * time.Second
			if barrier {
				cfg.Publish = noopPublish
			}
			var once sync.Once
			met, err := learnTaskWithChaos(t, kb, pos, neg, ms, 3, cfg, func(nw *cluster.Network, e cluster.Event) {
				if e.Type == cluster.EvReceive && e.Node == 0 && e.Kind == kindAdopted {
					once.Do(func() { nw.Kill(1 + e.Peer%3) }) // not the one that just answered
				}
			})
			if err != nil {
				t.Fatalf("recovery run failed: %v", err)
			}
			if met.Recoveries < 1 || met.LostWorkers != 1 {
				t.Fatalf("Recoveries = %d LostWorkers = %d", met.Recoveries, met.LostWorkers)
			}
			theoryCoversAll(t, kb, met.Theory, pos)
			if met.GroundFactsAdopted < len(pos) {
				t.Fatalf("GroundFactsAdopted = %d, want ≥ %d", met.GroundFactsAdopted, len(pos))
			}
		})
	}
}

// TestRecoverModeFailureFreeByteIdentical pins the acceptance bar for the
// refactor: with no failure injected, a Recover run is indistinguishable
// from a fail-stop run — same theory, same epochs, same bytes on the wire.
func TestRecoverModeFailureFreeByteIdentical(t *testing.T) {
	kb1, pos1, neg1, ms1 := makeTask(t)
	base, err := Learn(kb1, pos1, neg1, ms1, testConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	kb2, pos2, neg2, ms2 := makeTask(t)
	cfg := testConfig(4, 10)
	cfg.Recover = true
	rec, err := Learn(kb2, pos2, neg2, ms2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Theory) != len(rec.Theory) {
		t.Fatalf("theory sizes differ: %d vs %d", len(base.Theory), len(rec.Theory))
	}
	for i := range base.Theory {
		if base.Theory[i].String() != rec.Theory[i].String() {
			t.Fatalf("rule %d differs:\n%s\n%s", i, base.Theory[i], rec.Theory[i])
		}
	}
	if base.Epochs != rec.Epochs || base.CommBytes != rec.CommBytes || base.CommMessages != rec.CommMessages {
		t.Fatalf("run shape differs: base %d/%d/%d vs recover %d/%d/%d",
			base.Epochs, base.CommBytes, base.CommMessages, rec.Epochs, rec.CommBytes, rec.CommMessages)
	}
	if rec.Recoveries != 0 || rec.LostWorkers != 0 || rec.StaleDropped != 0 {
		t.Fatalf("phantom recovery: %+v", rec)
	}
}

// TestRecoverPanickingWorkerViaLearn pins the public Learn path: a worker
// goroutine that panics mid-run is converted to a crash of just that node
// and recovered around — the same injection TestWorkerPanicSurfacesAsError
// uses, which without Recover fails the whole run.
func TestRecoverPanickingWorkerViaLearn(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(3, 10)
	cfg.Recover = true
	cfg.RecvTimeout = 30 * time.Second
	cfg.Trace = func(e cluster.Event) {
		if e.Type == cluster.EvCompute && e.Node == 1 {
			panic(fmt.Sprintf("injected panic on node %d", e.Node))
		}
	}
	met, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatalf("Learn failed despite recovery: %v", err)
	}
	if met.LostWorkers != 1 || met.Recoveries < 1 {
		t.Fatalf("LostWorkers = %d Recoveries = %d", met.LostWorkers, met.Recoveries)
	}
	// The recovered-around failure must stay visible, not be laundered
	// into an anonymous crash.
	if len(met.WorkerErrors) != 1 || !strings.Contains(met.WorkerErrors[0], "panicked") {
		t.Fatalf("WorkerErrors = %v, want the recorded panic", met.WorkerErrors)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
	_ = neg
}

// TestRecoverDuringRepartition kills a worker in the same epoch as a
// per-epoch repartition, at each protocol point of the redeal barrier:
// gather, gathered, install, install ack. The repartition moves every worker's uncovered positives
// through the master, so the tracked assignedPos/Neg bookkeeping — what
// recovery redistributes — must stay consistent across the abort: no
// positive may end up unowned (covered by nobody, adopted by nobody).
func TestRecoverDuringRepartition(t *testing.T) {
	kills := []struct {
		name string
		kind int
		node int // -1: any sender of kind
	}{
		{"on gather broadcast", kindGather, 0},
		{"on gathered reply", kindGathered, -1},
		{"on repartition deal", kindReassign, 0},
		{"on repartition deal ack", kindReassignAck, -1},
	}
	for _, k := range kills {
		k := k
		t.Run(k.name, func(t *testing.T) {
			kb, pos, neg, ms := makeWideTask(t)
			cfg := testConfig(3, 10)
			cfg.RepartitionEachEpoch = true
			cfg.Recover = true
			cfg.RecvTimeout = 30 * time.Second
			var once sync.Once
			met, err := learnTaskWithChaosElastic(t, kb, pos, neg, ms, 3, cfg, func(nw *cluster.Network, e cluster.Event) {
				if e.Type != cluster.EvSend || e.Kind != k.kind {
					return
				}
				if k.node >= 0 && e.Node != k.node {
					return
				}
				once.Do(func() { nw.Kill(2) })
			})
			if err != nil {
				t.Fatalf("recovery run failed: %v", err)
			}
			if met.LostWorkers != 1 || met.Recoveries < 1 {
				t.Fatalf("LostWorkers = %d Recoveries = %d", met.LostWorkers, met.Recoveries)
			}
			theoryCoversAll(t, kb, met.Theory, pos)
		})
	}
}

// TestRecoverDuringRepartitionConsecutiveEpochs stresses the interaction
// over repeated repartitions: a second worker dies in a later epoch's
// repartition, after the first recovery already tightened and re-dealt the
// tracked assignments.
func TestRecoverDuringRepartitionConsecutiveEpochs(t *testing.T) {
	kb, pos, neg, ms := makeWideTask(t)
	cfg := testConfig(4, 10)
	cfg.RepartitionEachEpoch = true
	cfg.Recover = true
	cfg.RecvTimeout = 30 * time.Second
	var kills atomic.Int64
	met, err := learnTaskWithChaosElastic(t, kb, pos, neg, ms, 4, cfg, func(nw *cluster.Network, e cluster.Event) {
		if e.Type != cluster.EvSend || e.Node != 0 {
			return
		}
		if e.Kind == kindGather && kills.CompareAndSwap(0, 1) {
			nw.Kill(2)
		}
		if e.Kind == kindReassign && kills.Load() == 1 && kills.CompareAndSwap(1, 2) {
			nw.Kill(4)
		}
	})
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if met.LostWorkers != 2 || met.Recoveries < 1 {
		t.Fatalf("LostWorkers = %d Recoveries = %d", met.LostWorkers, met.Recoveries)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
}
