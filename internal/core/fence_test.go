package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultline"
	"repro/internal/logic"
	"repro/internal/search"
)

// gracedTransport gives any transport a link-reconnect grace window, so
// the config-time validation can be exercised without a TCP cluster.
type gracedTransport struct {
	cluster.Transport
	grace time.Duration
}

func (g *gracedTransport) LinkGrace() time.Duration { return g.grace }

// TestCheckLinkGraceValidation pins the startup check: a grace window as
// long as the protocol's receive timeout guarantees a spurious timeout on
// every flap, so the combination must be rejected before any wire op — by
// checkLinkGrace itself and by ResumeMaster, which shares RunMaster's
// validation. The network is shut down, so a resume that passes the check
// fails at once on its first receive, with an error that is not the
// grace window's.
func TestCheckLinkGraceValidation(t *testing.T) {
	nw := cluster.NewNetwork(2, cluster.DefaultCostModel)
	nw.Shutdown()
	node := nw.Node(0)
	ck := &Checkpoint{rec: checkpointRecord{Metrics: Metrics{Workers: 1}, Targets: []int{1}, AssignedPos: make([][]logic.Term, 2), AssignedNeg: make([][]logic.Term, 2)}}
	cases := []struct {
		name    string
		t       cluster.Transport
		timeout time.Duration
		wantErr bool
	}{
		{name: "no grace capability", t: node, timeout: time.Second},
		{name: "grace disabled", t: &gracedTransport{Transport: node}, timeout: time.Second},
		{name: "no receive timeout", t: &gracedTransport{Transport: node, grace: time.Second}},
		{name: "grace inside timeout", t: &gracedTransport{Transport: node, grace: 100 * time.Millisecond}, timeout: time.Second},
		{name: "grace equals timeout", t: &gracedTransport{Transport: node, grace: time.Second}, timeout: time.Second, wantErr: true},
		{name: "grace exceeds timeout", t: &gracedTransport{Transport: node, grace: 2 * time.Second}, timeout: time.Second, wantErr: true},
		// The probe sees through fault-injection wrappers.
		{name: "grace wrapped in faultline", t: faultline.Wrap(&gracedTransport{Transport: node, grace: 2 * time.Second}, faultline.Plan{}), timeout: time.Second, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkLinkGrace(tc.t, Config{RecvTimeout: tc.timeout})
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "grace") {
					t.Fatalf("checkLinkGrace = %v, want error naming the grace window", err)
				}
			} else if err != nil {
				t.Fatalf("checkLinkGrace = %v, want nil", err)
			}
			_, err = ResumeMaster(tc.t, ck, Config{RecvTimeout: tc.timeout})
			if refused := err != nil && strings.Contains(err.Error(), "grace"); refused != tc.wantErr {
				t.Fatalf("ResumeMaster = %v, want the grace window refused: %v", err, tc.wantErr)
			}
		})
	}
}

// flapClusterRun drives one simulated p²-mdie run whose master suffers a
// transient link blip at the flapAt'th protocol op (0 = never): for the
// blip window the master's sends are buffered and its receives wait, then
// everything flushes — the faultline analogue of a partition that heals
// inside the netcluster grace window. Returns the metrics (with the
// workers' fence counters folded in, as Learn does) and the op count.
func flapClusterRun(t *testing.T, flapAt int64) (*Metrics, int64) {
	t.Helper()
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(4, 0)
	cfg.RecvTimeout = 30 * time.Second
	cfgd := cfg.withDefaults()
	p := cfgd.Workers

	posParts, negParts := splitExamples(pos, neg, p, cfgd.Seed)
	nw := cluster.NewNetwork(p+1, cfgd.Cost)
	var wg sync.WaitGroup
	workers := make([]*worker, p+1)
	for k := 1; k <= p; k++ {
		w := newWorker(k, p, nw.Node(k), kb, search.NewExamples(posParts[k-1], negParts[k-1]), ms, cfgd)
		workers[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.run(); err != nil {
				t.Errorf("worker %d: %v", w.id, err)
				nw.Shutdown()
			}
		}()
	}

	metrics := &Metrics{Workers: p, Width: cfgd.Width}
	fl := faultline.Wrap(nw.Node(0), faultline.Plan{FlapAtOp: flapAt, FlapFor: 5 * time.Millisecond})
	ma := newMaster(fl, p, cfgd, metrics, len(pos), posParts, negParts)
	if err := ma.run(); err != nil {
		t.Fatalf("flap at op %d: master: %v", flapAt, err)
	}
	metrics.Theory = ma.theory
	wg.Wait()
	for k := 1; k <= p; k++ {
		metrics.FencedFrames += workers[k].fenced
	}
	if flapAt > 0 && fl.Flaps() != 1 {
		t.Fatalf("flap at op %d: Flaps() = %d, want 1", flapAt, fl.Flaps())
	}
	return metrics, fl.Ops()
}

// TestSimFlapSweepByteIdentity is the link-resilience acceptance check on
// the simulated transport: blip the master's links at a sweep of protocol
// points and require the learned theory to be byte-identical to the
// flap-free run's every time, with zero recoveries, zero master restarts
// and zero fenced frames — a healed transient partition must be invisible
// to the protocol.
func TestSimFlapSweepByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("flap-point sweep is slow")
	}
	base, total := flapClusterRun(t, 0)
	if total < 10 {
		t.Fatalf("probe run counted only %d ops", total)
	}
	want := fmt.Sprint(base.Theory)
	kb, pos, _, _ := makeTask(t)
	theoryCoversAll(t, kb, base.Theory, pos)
	// ~12 evenly spaced flap points plus the earliest and latest op.
	stride := total / 12
	if stride < 1 {
		stride = 1
	}
	points := []int64{1, total}
	for op := stride; op < total; op += stride {
		points = append(points, op)
	}
	for _, op := range points {
		met, _ := flapClusterRun(t, op)
		if t.Failed() {
			t.Fatalf("aborting sweep at op %d", op)
		}
		if got := fmt.Sprint(met.Theory); got != want {
			t.Fatalf("flap at op %d: theory diverged\n got: %s\nwant: %s", op, got, want)
		}
		if met.Recoveries != 0 || met.MasterRestarts != 0 {
			t.Fatalf("flap at op %d: Recoveries = %d MasterRestarts = %d, want 0/0 (a healed blip needs no recovery)",
				op, met.Recoveries, met.MasterRestarts)
		}
		if met.FencedFrames != 0 {
			t.Fatalf("flap at op %d: FencedFrames = %d, want 0 (no competing master generation)", op, met.FencedFrames)
		}
	}
}

// TestAsymmetricPartitionOneGenerationSurvives is the generation-fencing
// acceptance check: an asymmetric partition separates a master from a
// cluster that has meanwhile been taken over by a resumed successor. When
// the stale master comes back it must self-fence with ErrSuperseded on the
// workers' evidence — and exactly one generation, the newest, completes
// the run with a theory byte-identical to a failure-free one.
func TestAsymmetricPartitionOneGenerationSurvives(t *testing.T) {
	base, total := crashRestartRun(t, 0, t.TempDir())
	want := fmt.Sprint(base.Theory)

	dir := t.TempDir()
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(4, 0)
	cfg.CheckpointDir = dir
	cfg.Fingerprint = Fingerprint(kb, pos, neg)
	cfg.RecvTimeout = 30 * time.Second
	cfgd := cfg.withDefaults()
	p := cfgd.Workers

	posParts, negParts := splitExamples(pos, neg, p, cfgd.Seed)
	nw := cluster.NewNetwork(p+1, cfgd.Cost)
	var wg sync.WaitGroup
	workers := make([]*worker, p+1)
	for k := 1; k <= p; k++ {
		w := newWorker(k, p, nw.Node(k), kb, search.NewExamples(posParts[k-1], negParts[k-1]), ms, cfgd)
		workers[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.run(); err != nil {
				t.Errorf("worker %d: %v", w.id, err)
				nw.Shutdown()
			}
		}()
	}

	// Generation 0: the original master drives half the run, then vanishes
	// behind the partition (the crash is indistinguishable to the cluster).
	node0 := nw.Node(0)
	fl := faultline.Wrap(node0, faultline.Plan{CrashAtOp: total / 2})
	ma := newMaster(fl, p, cfgd, &Metrics{Workers: p, Width: cfgd.Width}, len(pos), posParts, negParts)
	if err := ma.run(); !errors.Is(err, faultline.ErrCrashed) {
		t.Fatalf("original master: %v, want the scheduled crash", err)
	}

	// Generation 1: a successor resumes from the checkpoint and performs
	// the rollback handshake — the workers are now fenced to generation 1.
	chk, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := chk.rec.config(cfg).withDefaults()
	maB := resumedMaster(node0, chk, rcfg, &Metrics{}, false)
	if maB.gen != 1 {
		t.Fatalf("resumed master generation = %d, want 1", maB.gen)
	}
	if err := maB.resumeCluster(); err != nil {
		t.Fatalf("successor resume handshake: %v", err)
	}

	// The partition heals and the original master comes back, still
	// believing its pre-partition generation 0. Its resume query must be
	// fenced by the workers and surface as ErrSuperseded — fast, not as a
	// receive timeout.
	chkA, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	maA := resumedMaster(node0, chkA, chkA.rec.config(cfg).withDefaults(), &Metrics{}, false)
	maA.gen = 0 // it never observed the successor's takeover
	start := time.Now()
	if err := maA.run(); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("stale master: %v, want ErrSuperseded", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("stale master took %v to self-fence — it waited out a timeout instead of reading the fence", waited)
	}

	// The surviving generation finishes the run byte-identically.
	chkC, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	mC := &Metrics{}
	maC := resumedMaster(node0, chkC, chkC.rec.config(cfg).withDefaults(), mC, false)
	if err := maC.run(); err != nil {
		t.Fatalf("surviving master: %v", err)
	}
	mC.Theory = maC.theory
	wg.Wait()
	if got := fmt.Sprint(mC.Theory); got != want {
		t.Fatalf("theory diverged after the partition\n got: %s\nwant: %s", got, want)
	}
	fenced := 0
	for k := 1; k <= p; k++ {
		fenced += workers[k].fenced
	}
	if fenced != p {
		t.Errorf("workers fenced %d frames, want exactly %d (one stale resume query each)", fenced, p)
	}
}

// What the worker's admission table does with one frame.
const (
	noEpoch  = iota // the frame carries no epoch: nothing to pin
	fenced          // dropped and counted; a master frame is answered with kindFenced
	dropped         // dropped in silence
	held            // kept until a master frame opens its epoch
	applied         // acted on; the epoch clock stays
	advanced        // acted on; the epoch clock moves to the frame's
)

// TestEpochCheckedFramesFencedAndDropped feeds a worker at epoch 5,
// generation 2, one frame of every master and ring kind, in three
// versions: from a superseded generation (with an epoch far ahead: the
// fence must run before the epoch means anything), from an abandoned
// epoch of the live generation, and from the next epoch. Each row pins
// what the worker does with each version. A fenced frame is counted and,
// only when the master sent it, answered with one kindFenced naming the
// worker's generation; a dropped one leaves no trace; neither moves the
// worker's clock, ring, partition or coverage cache.
func TestEpochCheckedFramesFencedAndDropped(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	ring := []int{1, 2, 3}
	rule := logic.MustParseClause("active(X) :- atm(X, Y, oxygen).")
	frames := []struct {
		kind   int
		from   int  // the master (0), or the ring predecessor (2)
		remote bool // a multi-process worker, whose kindLoad carries the partition
		mk     func(epoch, gen int) any
		want   [3]int // at a stale generation, a stale epoch, the next epoch
	}{
		{kindStartPipeline, 0, false, func(e, g int) any { return startMsg{tag: tag{Epoch: e, Gen: g}, Width: 10} },
			[3]int{fenced, dropped, advanced}},
		{kindStage, 2, false, func(e, g int) any { return stageMsg{tag: tag{Epoch: e, Gen: g}, Origin: 2, Step: 2} },
			[3]int{fenced, dropped, held}},
		{kindEvaluate, 0, false, func(e, g int) any { return evaluateMsg{tag: tag{Epoch: e, Gen: g}} },
			[3]int{fenced, dropped, advanced}},
		{kindMarkCovered, 0, false, func(e, g int) any { return markCoveredMsg{tag: tag{Epoch: e, Gen: g}, Rule: rule} },
			[3]int{fenced, applied, applied}},
		{kindAdopt, 0, false, func(e, g int) any { return adoptMsg{tag: tag{Epoch: e, Gen: g}} },
			[3]int{fenced, dropped, advanced}},
		{kindStop, 0, false, func(_, g int) any { return stopMsg{Gen: g} },
			[3]int{fenced, noEpoch, noEpoch}},
		{kindGather, 0, false, func(e, g int) any { return gatherMsg{tag: tag{Epoch: e, Gen: g}} },
			[3]int{fenced, dropped, advanced}},
		{kindReassign, 0, false, func(e, g int) any { return reassignMsg{tag: tag{Epoch: e, Gen: g}, Members: ring, Replace: true} },
			[3]int{fenced, dropped, advanced}},
		{kindWelcome, 0, false, func(e, g int) any { return welcomeMsg{tag: tag{Epoch: e, Gen: g}, Members: ring} },
			[3]int{fenced, dropped, advanced}},
		{kindResumeQuery, 0, false, func(e, g int) any { return resumeQueryMsg{tag: tag{Epoch: e, Gen: g}} },
			[3]int{fenced, applied, applied}},
		{kindLoad, 0, true, func(_, g int) any {
			return loadDataMsg{HasData: true, Gen: g, Pos: pos[:6], Neg: neg[:6], Width: 10, Search: testConfig(2, 10).Search}
		}, [3]int{fenced, noEpoch, noEpoch}},
	}
	// A stale-generation frame is "staleGen=true"; a stale-epoch frame of
	// the live generation is "staleGen=false".
	versions := []struct {
		name       string
		epoch, gen int
	}{{"staleGen=true", 9, 1}, {"staleGen=false", 4, 2}, {"nextEpoch", 6, 2}}
	for _, fr := range frames {
		for v, ver := range versions {
			want := fr.want[v]
			if want == noEpoch {
				continue
			}
			t.Run(fmt.Sprintf("kind%d/%s", fr.kind, ver.name), func(t *testing.T) {
				nw := cluster.NewNetwork(3, cluster.CostModel{})
				cfg := testConfig(2, 10).withDefaults()
				w := newWorker(1, 2, nw.Node(1), kb, search.NewExamples(pos[:6], neg[:6]), ms, cfg)
				if fr.remote {
					w = newRemoteWorker(nw.Node(1), kb, ms, cfg)
				}
				w.epoch, w.gen = 5, 2
				state := func() string {
					alive := -1
					if w.ex != nil {
						alive = w.ex.PosAlive.Count()
					}
					return fmt.Sprint("epoch ", w.epoch, " gen ", w.gen, " ring ", w.ring, " alive ", alive, " cached ", len(w.covCache))
				}
				before := state()
				if err := nw.Node(fr.from).Send(1, fr.kind, fr.mk(ver.epoch, ver.gen)); err != nil {
					t.Fatal(err)
				}
				if err := nw.Node(0).Send(1, kindStop, stopMsg{Gen: 2}); err != nil {
					t.Fatal(err)
				}
				if err := w.run(); err != nil {
					t.Fatal(err)
				}
				// Whatever the worker sent the master is queued ahead of this.
				const sentinel = 999
				if err := nw.Node(2).Send(0, sentinel, junk{}); err != nil {
					t.Fatal(err)
				}
				var got []cluster.Message
				for {
					msg, err := receiveWithTimeout(nw.Node(0), 5*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					if msg.Kind == sentinel {
						break
					}
					if msg.Kind != kindFinal { // a remote worker's answer to the closing stop
						got = append(got, msg)
					}
				}
				after := state()
				switch want {
				case fenced:
					var fm fencedMsg
					if fr.from != 0 {
						if len(got) != 0 {
							t.Fatalf("a sibling's stale-generation frame was answered: %+v", got)
						}
					} else if len(got) != 1 || got[0].Kind != kindFenced || got[0].Decode(&fm) != nil || fm.Gen != 2 || fm.Worker != 1 || fm.Epoch != 5 {
						t.Fatalf("stale-generation frame: replies %+v (decoded %+v), want one kindFenced from worker 1 at generation 2, epoch 5", got, fm)
					}
					if w.fenced != 1 || after != before || len(w.held) != 0 {
						t.Fatalf("fenced %d, held %d, state %s (was %s): want 1, 0 and unchanged", w.fenced, len(w.held), after, before)
					}
				case dropped, held:
					wantHeld := 0
					if want == held {
						wantHeld = 1
					}
					if len(got) != 0 || w.fenced != 0 || w.seq != 0 || after != before || len(w.held) != wantHeld {
						t.Fatalf("%d replies, fenced %d, seq %d, held %d, state %s (was %s): want none, 0, 0, %d, unchanged",
							len(got), w.fenced, w.seq, len(w.held), after, before, wantHeld)
					}
				case applied, advanced:
					wantEpoch := 5
					if want == advanced {
						wantEpoch = ver.epoch
					}
					if w.fenced != 0 || len(w.held) != 0 || w.epoch != wantEpoch || len(got) == 0 && after == before {
						t.Fatalf("fenced %d, held %d, %d replies, state %s (was %s): want the frame acted on at epoch %d",
							w.fenced, len(w.held), len(got), after, before, wantEpoch)
					}
				}
			})
		}
	}
}
