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
	ck := &Checkpoint{rec: checkpointRecord{Workers: 1, Targets: []int{1}, AssignedPos: make([][]logic.Term, 2), AssignedNeg: make([][]logic.Term, 2)}}
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

// TestEpochCheckedFramesFencedAndDropped feeds a worker at epoch 5,
// generation 2, one frame of every kind that goes through worker.open —
// first from a superseded generation (with an epoch far ahead: the fence
// must run before the epoch means anything), then from an abandoned epoch
// of the live generation. The first is refused with one kindFenced naming
// the worker's generation, the second is dropped in silence, and neither
// moves the worker's clock, ring, partition or reply sequence.
func TestEpochCheckedFramesFencedAndDropped(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	ring := []int{1, 2, 3}
	frames := []struct {
		kind int
		mk   func(epoch, gen int) any
	}{
		{kindStartPipeline, func(e, g int) any { return startMsg{Epoch: e, Gen: g, Width: 10} }},
		{kindEvaluate, func(e, g int) any { return evaluateMsg{Epoch: e, Gen: g} }},
		{kindAdopt, func(e, g int) any { return adoptMsg{Epoch: e, Gen: g} }},
		{kindGather, func(e, g int) any { return gatherMsg{Epoch: e, Gen: g} }},
		{kindReassign, func(e, g int) any { return reassignMsg{Epoch: e, Gen: g, Members: ring, Replace: true} }},
		{kindWelcome, func(e, g int) any { return welcomeMsg{Epoch: e, Gen: g, Members: ring} }},
	}
	for _, fr := range frames {
		kind := fr.kind
		for _, staleGen := range []bool{true, false} {
			t.Run(fmt.Sprintf("kind%d/staleGen=%v", kind, staleGen), func(t *testing.T) {
				nw := cluster.NewNetwork(3, cluster.CostModel{})
				w := newWorker(1, 2, nw.Node(1), kb, search.NewExamples(pos[:6], neg[:6]), ms, testConfig(2, 10).withDefaults())
				w.epoch, w.gen = 5, 2
				frame := fr.mk(4, 2)
				if staleGen {
					frame = fr.mk(9, 1)
				}
				const sentinel = 999
				for _, m := range []struct {
					kind int
					v    any
				}{{kind, frame}, {kindStop, stopMsg{Gen: 2}}} {
					if err := nw.Node(0).Send(1, m.kind, m.v); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.run(); err != nil {
					t.Fatal(err)
				}
				// Whatever the worker sent the master is queued ahead of this.
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
					got = append(got, msg)
				}
				if w.epoch != 5 || w.gen != 2 || len(w.ring) != 2 || w.ex.PosAlive.Count() != 6 {
					t.Fatalf("the frame moved the worker: epoch %d gen %d ring %v alive %d", w.epoch, w.gen, w.ring, w.ex.PosAlive.Count())
				}
				if !staleGen {
					if len(got) != 0 || w.fenced != 0 || w.seq != 0 {
						t.Fatalf("stale-epoch frame answered: %d replies, fenced %d, seq %d", len(got), w.fenced, w.seq)
					}
					return
				}
				var fm fencedMsg
				if len(got) != 1 || got[0].Kind != kindFenced || got[0].Decode(&fm) != nil || fm.Gen != 2 || fm.Worker != 1 || fm.Epoch != 5 {
					t.Fatalf("stale-generation frame: replies %+v (decoded %+v), want one kindFenced from worker 1 at generation 2, epoch 5", got, fm)
				}
				if w.fenced != 1 {
					t.Fatalf("fenced = %d, want 1", w.fenced)
				}
			})
		}
	}
}
