package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultline"
	"repro/internal/logic"
	"repro/internal/search"
)

// checkLedger asserts the redeal barrier's bookkeeping against the workers
// themselves at a quiescent epoch boundary: the tracked assignments are
// pairwise disjoint, every alive positive a live worker holds is tracked
// as that worker's, and `remaining` is the sum of the live workers' alive
// counts — what the last barrier's acks rebased it to, less what the
// epochs since have covered or adopted.
func checkLedger(ma *master, workers []*worker) error {
	owner := make(map[string]int)
	for k, share := range ma.assignedPos {
		for _, e := range share {
			key := e.String()
			if prev, dup := owner[key]; dup {
				return fmt.Errorf("ledger: %s tracked for worker %d and worker %d", key, prev, k)
			}
			owner[key] = k
		}
	}
	alive := 0
	for _, w := range workers {
		if !ma.isLive(w.id) {
			continue
		}
		var err error
		w.ex.PosAlive.ForEach(func(i int) bool {
			alive++
			if k, ok := owner[w.ex.Pos[i].String()]; !ok || k != w.id {
				err = fmt.Errorf("ledger: worker %d holds %s, tracked for worker %d (tracked at all: %v)", w.id, w.ex.Pos[i], k, ok)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	if alive != ma.remaining {
		return fmt.Errorf("ledger: remaining = %d, live workers hold %d alive positives", ma.remaining, alive)
	}
	return nil
}

// redealRun drives one simulated run on makeWideTask with everything the
// five redeal triggers need: a chaos hook for kills, cfg.JoinEpochs
// spawning, and a master that crashes at its crashAt'th protocol op (0 =
// never) and is resumed from its checkpoint. checkLedger runs at every
// published epoch boundary and once more after the run. Returns the
// metrics and the first master's op count.
func redealRun(t *testing.T, p int, cfg Config, crashAt int64, chaos func(nw *cluster.Network, e cluster.Event)) (*Metrics, int64) {
	t.Helper()
	kb, pos, neg, ms := makeWideTask(t)
	cfg.RecvTimeout = 30 * time.Second
	if cfg.CheckpointDir != "" {
		cfg.Fingerprint = Fingerprint(kb, pos, neg)
	}
	var ma *master
	var workers []*worker // appended to on the master's goroutine only
	cfg.Publish = func(int, []logic.Clause) error { return checkLedger(ma, workers) }
	cfgd := cfg.withDefaults()

	posParts, negParts := splitExamples(pos, neg, p, cfgd.Seed)
	nw := cluster.NewNetwork(p+1, cfgd.Cost)
	if chaos != nil {
		nw.SetTrace(func(e cluster.Event) { chaos(nw, e) })
	}
	var wg sync.WaitGroup
	start := func(w *worker) {
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.run(); err != nil {
				if !cfgd.Recover {
					t.Errorf("worker %d: %v", w.id, err)
					nw.Shutdown()
					return
				}
				nw.Kill(w.id)
			}
		}()
	}
	for k := 1; k <= p; k++ {
		start(newWorker(k, p, nw.Node(k), kb, search.NewExamples(posParts[k-1], negParts[k-1]), ms, cfgd))
	}
	spawn := func() int {
		node := nw.Spawn()
		start(newWorker(node.ID(), p, node, kb, search.NewExamples(nil, nil), ms, cfgd))
		return node.ID()
	}

	metrics := &Metrics{Workers: p, Width: cfgd.Width}
	fl := faultline.Wrap(nw.Node(0), faultline.Plan{CrashAtOp: crashAt})
	ma = newMaster(fl, p, cfgd, metrics, len(pos), posParts, negParts)
	ma.spawn = spawn
	err := ma.run()
	if crashAt > 0 {
		if !errors.Is(err, faultline.ErrCrashed) {
			nw.Shutdown()
			t.Fatalf("master: %v, want the scheduled crash at op %d", err, crashAt)
		}
		chk, lerr := LoadCheckpoint(cfg.CheckpointDir)
		if lerr != nil {
			nw.Shutdown()
			t.Fatal(lerr)
		}
		metrics = &Metrics{}
		ma = resumedMaster(nw.Node(0), chk, chk.rec.config(cfg).withDefaults(), metrics, false)
		ma.spawn = spawn
		err = ma.run()
	}
	if err != nil {
		nw.Shutdown()
		wg.Wait()
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	if err := checkLedger(ma, workers); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	if ma.remaining != 0 {
		t.Fatalf("remaining = %d after the run", ma.remaining)
	}
	metrics.Theory = ma.theory
	theoryCoversAll(t, kb, metrics.Theory, pos)
	return metrics, fl.Ops()
}

// TestRedealBarrier drives master.redeal from each of its five triggers —
// worker death, resume rollback, mid-run join, Balance and per-epoch
// repartition — and holds every run to the same ledger.
func TestRedealBarrier(t *testing.T) {
	killOnEvaluate := func() func(*cluster.Network, cluster.Event) {
		var once sync.Once
		return func(nw *cluster.Network, e cluster.Event) {
			if e.Type == cluster.EvSend && e.Node == 0 && e.Kind == kindEvaluate {
				once.Do(func() { nw.Kill(2) })
			}
		}
	}
	cases := []struct {
		name   string
		cfg    func(c *Config, dir string)
		chaos  func(*cluster.Network, cluster.Event)
		resume bool
		check  func(m *Metrics) bool
	}{
		{
			name:  "worker death",
			cfg:   func(c *Config, _ string) { c.Recover = true },
			chaos: killOnEvaluate(),
			check: func(m *Metrics) bool { return m.Recoveries >= 1 && m.LostWorkers == 1 && m.Rebalances == 0 },
		},
		{
			name:   "resume rollback",
			cfg:    func(c *Config, dir string) { c.CheckpointDir = dir },
			resume: true,
			check:  func(m *Metrics) bool { return m.MasterRestarts == 1 && m.Recoveries == 0 && m.Rebalances == 0 },
		},
		{
			name: "mid-run join",
			cfg:  func(c *Config, _ string) { c.JoinEpochs = []int{1} },
			check: func(m *Metrics) bool {
				return m.JoinedWorkers == 1 && m.Rebalances == 1 && len(m.JoinShares) == 1 && m.JoinShares[0] > 0
			},
		},
		{
			name:  "balance",
			cfg:   func(c *Config, _ string) { c.Balance = true },
			check: func(m *Metrics) bool { return m.Rebalances == m.Epochs-1 },
		},
		{
			name:  "repartition each epoch",
			cfg:   func(c *Config, _ string) { c.RepartitionEachEpoch = true },
			check: func(m *Metrics) bool { return m.Rebalances == m.Epochs-1 },
		},
		{
			// One boundary, every replace trigger at once: still one redeal.
			name: "join under repartition deals once",
			cfg: func(c *Config, _ string) {
				c.RepartitionEachEpoch = true
				c.JoinEpochs = []int{1}
			},
			check: func(m *Metrics) bool { return m.JoinedWorkers == 1 && m.Rebalances == m.Epochs-1 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(3, 10)
			tc.cfg(&cfg, t.TempDir())
			var crashAt int64
			var free *Metrics
			if tc.resume {
				probe := cfg
				probe.CheckpointDir = t.TempDir()
				var ops int64
				free, ops = redealRun(t, 3, probe, 0, nil)
				crashAt = ops / 2
			}
			met, _ := redealRun(t, 3, cfg, crashAt, tc.chaos)
			if met.Epochs < 3 || !tc.check(met) {
				t.Fatalf("the trigger did not fire as expected: epochs=%d recoveries=%d lost=%d restarts=%d joined=%d rebalances=%d joinShares=%v",
					met.Epochs, met.Recoveries, met.LostWorkers, met.MasterRestarts, met.JoinedWorkers, met.Rebalances, met.JoinShares)
			}
			// The checkpoint carries the cumulative counters across the
			// restart: the resumed run reports the failure-free run's.
			if free != nil && (met.Epochs != free.Epochs || met.RulesLearned != free.RulesLearned || met.GroundFactsAdopted != free.GroundFactsAdopted) {
				t.Fatalf("resumed run counted epochs/rules/facts %d/%d/%d, the failure-free run %d/%d/%d",
					met.Epochs, met.RulesLearned, met.GroundFactsAdopted, free.Epochs, free.RulesLearned, free.GroundFactsAdopted)
			}
		})
	}
}
