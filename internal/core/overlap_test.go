package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/netcluster"
	"repro/internal/search"
	"repro/internal/solve"
)

// The adoption ledger and the ring-frame fence (DESIGN.md §6): the master
// may start epoch e+1's pipelines before epoch e's adoption replies are
// in, and a worker holds a neighbour's stage until its own master link has
// opened the stage's epoch. None of it has a switch, so the tests use what
// the code itself looks at: a no-op Publish hook makes the epoch boundary
// observed (barrier), its absence leaves it idle (overlap), and transport
// wrappers produce the cross-link reorderings the fence exists for.

// makeAdoptHeavyTask has one learnable cause (oxygen) and a tail of
// positives that look exactly like the negatives, so after the rule epochs
// every remaining epoch ends in the adoption fallback.
func makeAdoptHeavyTask(t testing.TB) (*solve.KB, []logic.Term, []logic.Term, *mode.Set) {
	t.Helper()
	kb := solve.NewKB()
	var pos, neg []logic.Term
	add := func(mol string, elements []string, isPos bool) {
		for i, el := range elements {
			kb.AddFact(logic.MustParseTerm(fmt.Sprintf("atm(%s, %s_a%d, %s)", mol, mol, i, el)))
		}
		e := logic.MustParseTerm(fmt.Sprintf("active(%s)", mol))
		if isPos {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	fillers := [][]string{{"carbon", "nitrogen"}, {"carbon"}, {"nitrogen"}}
	for i := 0; i < 9; i++ {
		add(fmt.Sprintf("ox%d", i), append([]string{"oxygen"}, fillers[i%3]...), true)
	}
	for i := 0; i < 17; i++ {
		add(fmt.Sprintf("un%d", i), fillers[i%3], true)
	}
	for i := 0; i < 18; i++ {
		add(fmt.Sprintf("ng%d", i), fillers[i%3], false)
	}
	ms := mode.MustParseSet(`
		modeh(1, active(+mol)).
		modeb('*', atm(+mol, -atomid, #element)).
	`)
	return kb, pos, neg, ms
}

func adoptHeavyConfig(p int) Config {
	cfg := testConfig(p, 10)
	cfg.Search.MinPrec = 0.95
	return cfg
}

func noopPublish(int, []logic.Clause) error { return nil }

// sameRun asserts everything the overlap must leave alone.
func sameRun(t *testing.T, what string, got, want *Metrics) {
	t.Helper()
	if g, w := fmt.Sprint(got.Theory), fmt.Sprint(want.Theory); g != w {
		t.Fatalf("%s: theory differs\n got: %s\nwant: %s", what, g, w)
	}
	if got.Epochs != want.Epochs || got.TotalInferences != want.TotalInferences ||
		got.CommBytes != want.CommBytes || got.CommMessages != want.CommMessages {
		t.Fatalf("%s: epochs/inferences/bytes/msgs = %d/%d/%d/%d, want %d/%d/%d/%d", what,
			got.Epochs, got.TotalInferences, got.CommBytes, got.CommMessages,
			want.Epochs, want.TotalInferences, want.CommBytes, want.CommMessages)
	}
}

// TestOverlapSameRunLowerMakespanSim: with the boundary idle the run is
// the barrier run message for message — only the virtual makespan moves,
// by the round trips no longer waited out.
func TestOverlapSameRunLowerMakespanSim(t *testing.T) {
	kb, pos, neg, ms := makeAdoptHeavyTask(t)
	cfg := adoptHeavyConfig(3)
	overlap, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Publish = noopPublish
	barrier, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if overlap.GroundFactsAdopted < 10 || overlap.RulesLearned == 0 {
		t.Fatalf("task is not adoption-heavy with rules: %d adopted, %d rules", overlap.GroundFactsAdopted, overlap.RulesLearned)
	}
	theoryCoversAll(t, kb, overlap.Theory, pos)
	sameRun(t, "overlap vs barrier", overlap, barrier)
	if overlap.VirtualTime >= barrier.VirtualTime {
		t.Fatalf("VirtualTime %v with the boundary idle, %v with it observed: the overlap hid nothing", overlap.VirtualTime, barrier.VirtualTime)
	}
}

// TestOverlapSameRunTCP is the same identity over real sockets, where the
// adoption replies and the next epoch's stages really do race.
func TestOverlapSameRunTCP(t *testing.T) {
	kb, pos, neg, ms := makeAdoptHeavyTask(t)
	run := func(cfg Config) *Metrics {
		ncfg := netcluster.Config{Fingerprint: Fingerprint(kb, pos, neg)}
		master, errCh := startNetCluster(t, 3, ncfg, func(node *netcluster.Node) error {
			return RunWorker(node, kb, ms, Config{})
		})
		cfg.RecvTimeout = 30 * time.Second
		met, err := RunMaster(master, pos, neg, cfg)
		if err != nil {
			master.Abort()
			t.Fatal(err)
		}
		master.Close()
		for k := 0; k < 3; k++ {
			if werr := <-errCh; werr != nil {
				t.Fatalf("worker error: %v", werr)
			}
		}
		return met
	}
	cfg := adoptHeavyConfig(3)
	overlap := run(cfg)
	cfg.Publish = noopPublish
	barrier := run(cfg)
	sameRun(t, "TCP overlap vs barrier", overlap, barrier)
	sim, err := Learn(kb, pos, neg, ms, adoptHeavyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprint(overlap.Theory), fmt.Sprint(sim.Theory); g != w || overlap.TotalInferences != sim.TotalInferences {
		t.Fatalf("TCP and simulated overlap runs differ\n tcp: %s (%d inferences)\n sim: %s (%d)", g, overlap.TotalInferences, w, sim.TotalInferences)
	}
}

// lagMasterLink wraps one worker's transport and takes away the
// cross-link ordering the protocol used to assume. From the first master
// frame of a trigger kind on, master frames queue — in order, the link
// itself stays FIFO — until a neighbour's kindStage has been handed to
// the worker ahead of them. The lag also ends when the master sends
// something other than a pipeline start (it is mid-consumption or
// stopping: no stage can be on its way) or when patience runs out (the
// master is waiting for this worker's reply to a queued frame).
type lagMasterLink struct {
	cluster.Transport
	trigger  func(kind int) bool
	patience time.Duration

	queue     []cluster.Message
	lagging   bool
	overtaken int // stages delivered ahead of queued master frames
}

func (l *lagMasterLink) ReceiveCtx(ctx context.Context) (cluster.Message, error) {
	for {
		if !l.lagging {
			if len(l.queue) > 0 {
				msg := l.queue[0]
				l.queue = l.queue[1:]
				return msg, nil
			}
			msg, err := l.Transport.ReceiveCtx(ctx)
			if err != nil || msg.From != 0 || msg.Kind < 0 || !l.trigger(msg.Kind) {
				return msg, err
			}
			l.lagging = true
			l.queue = append(l.queue, msg)
			continue
		}
		wctx, cancel := context.WithTimeout(ctx, l.patience)
		msg, err := l.Transport.ReceiveCtx(wctx)
		cancel()
		if err != nil {
			if ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
				l.lagging = false
				continue
			}
			return msg, err
		}
		if msg.From == 0 && msg.Kind >= 0 {
			l.queue = append(l.queue, msg)
			if msg.Kind != kindStartPipeline {
				l.lagging = false
			}
			continue
		}
		if msg.Kind == kindStage {
			l.lagging = false
			l.overtaken++
		}
		return msg, nil
	}
}

// learnRemoteOnSim runs the multi-process protocol — partitions shipped in
// kindLoad, final reports — over the simulated network, with each worker's
// transport passed through wrap. It is the deterministic stand-in for a
// TCP cluster whose links deliver in an order of the test's choosing.
func learnRemoteOnSim(t *testing.T, kb *solve.KB, pos, neg []logic.Term, ms *mode.Set, p int, cfg Config, wrap func(k int, n cluster.Transport) cluster.Transport) (*Metrics, error) {
	t.Helper()
	cfg.RecvTimeout = 30 * time.Second
	nw := cluster.NewNetwork(p+1, cluster.CostModel{})
	errCh := make(chan error, p)
	var wg sync.WaitGroup
	for k := 1; k <= p; k++ {
		var tp cluster.Transport = nw.Node(k)
		if wrap != nil {
			tp = wrap(k, tp)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(tp, kb, ms, Config{RecvTimeout: cfg.RecvTimeout}); err != nil {
				errCh <- err
				nw.Shutdown()
			}
		}()
	}
	met, err := RunMaster(nw.Node(0), pos, neg, cfg)
	if err != nil {
		nw.Shutdown()
	}
	wg.Wait()
	close(errCh)
	for werr := range errCh {
		return nil, werr // the root cause; the master's error is its echo
	}
	return met, err
}

// TestFenceStageBeforeLoad hands worker 2 its neighbour's first kindStage
// before its kindLoad (ROADMAP item 1(a): the two travel on different
// connections). The stage must wait for the partition, not kill the
// worker, and the run must be the unreordered run.
func TestFenceStageBeforeLoad(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(3, 10)
	want, err := learnRemoteOnSim(t, kb, pos, neg, ms, 3, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lag *lagMasterLink
	got, err := learnRemoteOnSim(t, kb, pos, neg, ms, 3, cfg, func(k int, n cluster.Transport) cluster.Transport {
		if k != 2 {
			return n
		}
		lag = &lagMasterLink{Transport: n, patience: 5 * time.Second, trigger: func(kind int) bool { return kind == kindLoad }}
		return lag
	})
	if err != nil {
		t.Fatalf("run with kindStage ahead of kindLoad: %v", err)
	}
	if lag.overtaken == 0 {
		t.Fatal("the wrapper never got a stage in ahead of the load: nothing was tested")
	}
	sameRun(t, "stage before load", got, want)
}

// TestFenceStageBeforeAdoptOrMarkCovered delays worker 2's master link so
// that kindStage(e+1) from its neighbour reaches it before the frame that
// closes epoch e there — the last kindMarkCovered of a rule epoch, the
// kindAdopt of a fallback epoch — and before its own kindStartPipeline.
// Run at once, such a stage searches examples the delayed frame was about
// to retract; fenced, the run is the undelayed run, inference for
// inference.
func TestFenceStageBeforeAdoptOrMarkCovered(t *testing.T) {
	cases := []struct {
		name  string
		task  func(testing.TB) (*solve.KB, []logic.Term, []logic.Term, *mode.Set)
		cfg   Config
		close int // the master frame to delay
	}{
		// Width 1: one rule per pipeline, all of them accepted, so the bag
		// empties on a pick and the epoch's last frame is a
		// kindMarkCovered with the next kindStartPipeline right behind —
		// no closing kindEvaluate round trip to act as a barrier.
		{"markCovered", makeWideTask, testConfig(3, 1), kindMarkCovered},
		{"adopt", makeAdoptHeavyTask, adoptHeavyConfig(3), kindAdopt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kb, pos, neg, ms := tc.task(t)
			want, err := learnRemoteOnSim(t, kb, pos, neg, ms, 3, tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var lag *lagMasterLink
			got, err := learnRemoteOnSim(t, kb, pos, neg, ms, 3, tc.cfg, func(k int, n cluster.Transport) cluster.Transport {
				if k != 2 {
					return n
				}
				lag = &lagMasterLink{Transport: n, patience: 250 * time.Millisecond, trigger: func(kind int) bool { return kind == tc.close }}
				return lag
			})
			if err != nil {
				t.Fatal(err)
			}
			if lag.overtaken < 2 {
				t.Fatalf("only %d stages overtook the master link: the reordering was not exercised", lag.overtaken)
			}
			sameRun(t, "stage ahead of "+tc.name, got, want)
		})
	}
}

// TestFenceHoldSupersedeAndBound pins the hold list's discipline: one
// epoch at a time, newest wins, never more entries than nodes.
func TestFenceHoldSupersedeAndBound(t *testing.T) {
	nw := cluster.NewNetwork(3, cluster.CostModel{})
	w := &worker{id: 1, node: nw.Node(1), epoch: 4}
	epochs := func() (out []int) {
		for _, st := range w.held {
			out = append(out, st.Epoch)
		}
		return out
	}
	for _, e := range []int{6, 6, 5} { // the 5 is already superseded
		if err := w.hold(stageMsg{tag: tag{Epoch: e}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(epochs()); got != "[6 6]" {
		t.Fatalf("held epochs %s, want [6 6]", got)
	}
	if err := w.hold(stageMsg{tag: tag{Epoch: 8}}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(epochs()); got != "[8]" {
		t.Fatalf("held epochs %s after a newer stage, want [8]", got)
	}
	w.epoch = 9 // moved past without ever opening epoch 8
	if err := w.releaseHeld(); err != nil || len(w.held) != 0 {
		t.Fatalf("superseded stages not dropped: held %v, err %v", epochs(), err)
	}
	var err error
	for i := 0; i <= nw.Size() && err == nil; i++ {
		err = w.hold(stageMsg{tag: tag{Epoch: 12}})
	}
	if err == nil || !strings.Contains(err.Error(), "more than the ring can send") {
		t.Fatalf("hold list grew past the cluster size: err = %v", err)
	}
}

// TestFenceHeldStageTimeoutNamesEpoch: a worker whose receive deadline
// fires says where it stands — epoch, generation, ring, whether its
// partition is loaded — and, when it holds a stage that was never
// released, which epoch that stage was waiting for.
func TestFenceHeldStageTimeoutNamesEpoch(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cases := []struct {
		name       string
		epoch, gen int
		stage      *stageMsg // from the ring predecessor; nil = no traffic at all
		want       string
	}{
		{"held stage", 0, 0, &stageMsg{tag: tag{Epoch: 5}, Origin: 2, Step: 2}, "holding 1 stage(s) of epoch 5"},
		{"no traffic", 3, 1, nil, "worker 1 at epoch 3, generation 1, ring [1 2], partition loaded: receive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := cluster.NewNetwork(3, cluster.CostModel{})
			cfg := testConfig(2, 10)
			cfg.RecvTimeout = 50 * time.Millisecond
			posParts, negParts := splitExamples(pos, neg, 2, cfg.Seed)
			w := newWorker(1, 2, nw.Node(1), kb, search.NewExamples(posParts[0], negParts[0]), ms, cfg.withDefaults())
			w.epoch, w.gen = tc.epoch, tc.gen
			if tc.stage != nil {
				if err := nw.Node(2).Send(1, kindStage, *tc.stage); err != nil {
					t.Fatal(err)
				}
			}
			err := w.run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("worker error = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestAdoptLedgerCollectsUnderOtherPhases drives the receive path directly:
// with the adoption ledger open for the previous wire epoch, kindAdopted
// frames of that epoch are filed while the caller gathers rules — not
// dropped as stale, not a kind violation — duplicates are still fatal, and
// a deadline says who owes what.
func TestAdoptLedgerCollectsUnderOtherPhases(t *testing.T) {
	r := newDispatchRig(t, 2, false)
	r.ma.cfg.RecvTimeout = 50 * time.Millisecond
	r.ma.metrics.Epochs = 1
	adopting := r.ma.open(kindAdopted)
	adopting.epoch = 2
	ex := logic.MustParseTerm("active(m1)")
	r.sendAs(t, 2, kindAdopted, adoptedMsg{tag: tag{Epoch: 2}, Worker: 2, Ok: true, Example: ex})
	r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 1})

	err := r.gather()
	const want = "gather after 1 completed epochs, wire epoch 3: waiting for rules from origins [2], adoptions(epoch 2) from [1]"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v\nwant substring %q", err, want)
	}
	if n := len(adopting.replies); n != 1 || r.ma.metrics.StaleDropped != 0 {
		t.Fatalf("ledger holds %d replies, %d stale drops; want 1 and 0", n, r.ma.metrics.StaleDropped)
	}

	r.sendAs(t, 2, kindAdopted, adoptedMsg{tag: tag{Epoch: 2}, Worker: 2, Ok: true, Example: ex})
	err = r.gather()
	if err == nil || !strings.Contains(err.Error(), "duplicate or unexpected kind-8 reply for member 2") {
		t.Fatalf("duplicate adoption: err = %v", err)
	}

	// Settling an incomplete ledger (what a phase abort does) keeps what
	// was collected and leaves `remaining` for the recovery acks to rebase.
	r.ma.settleAdoptions()
	if l := r.ma.ledgerOf(kindAdopted); l != nil || len(r.ma.theory) != 1 || r.ma.metrics.GroundFactsAdopted != 1 || r.ma.remaining != 1 {
		t.Fatalf("after settle: ledger %v, theory %v, adopted %d, remaining %d", l, r.ma.theory, r.ma.metrics.GroundFactsAdopted, r.ma.remaining)
	}
}
