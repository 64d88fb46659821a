package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/faultline"
	"repro/internal/logic"
	"repro/internal/search"
)

// sampleCheckpointRecord sets every field of the master's checkpoint
// record.
func sampleCheckpointRecord() checkpointRecord {
	mustTerm := logic.MustParseTerm
	rule := logic.Clause{
		Head: mustTerm("active(X)"),
		Body: []logic.Literal{logic.Lit(mustTerm("atm(X, Y, oxygen)"))},
	}
	return checkpointRecord{
		Fingerprint: 0xDEADBEEF,
		Epoch:       7,
		Seq:         91,
		Targets:     []int{1, 2},
		AssignedPos: [][]logic.Term{nil, {mustTerm("active(m1)")}, {mustTerm("active(m2)")}},
		AssignedNeg: [][]logic.Term{nil, {mustTerm("active(m3)")}, nil},
		Remaining:   5,
		Theory:      []logic.Clause{rule},
		Load: loadDataMsg{
			Width:         4,
			Checkpoint:    true,
			OrphanTimeout: 30 * time.Second,
			Recover:       true,
		},
		Peers: []string{"127.0.0.1:9000", "127.0.0.1:9001", "127.0.0.1:9002"},
		Size:  3,
		Metrics: Metrics{
			Workers:            2,
			Epochs:             6,
			RulesLearned:       3,
			GroundFactsAdopted: 1,
			Recoveries:         2,
			LostWorkers:        1,
			Rebalances:         1,
			JoinedWorkers:      1,
			JoinShares:         []int{4},
			StaleDropped:       9,
			MasterRestarts:     1,
			OrphanReconnects:   2,
		},
		Generation: 3,
	}
}

// TestCheckpointRecordRoundTrip pins the durable snapshot format the same
// way TestMessageWireRoundTrip pins the payloads: every field of the
// master's checkpoint record must survive an encode/decode cycle
// unchanged, or a resumed master silently starts from corrupted state —
// and every cut of the payload must fail to decode rather than resume.
func TestCheckpointRecordRoundTrip(t *testing.T) {
	rec := sampleCheckpointRecord()
	payload := rec.encode()
	out, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(out, rec) {
		t.Errorf("round trip mismatch:\n got: %#v\nwant: %#v", out, rec)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeCheckpoint(payload[:cut]); err == nil {
			t.Fatalf("a checkpoint cut to %d of %d bytes decoded", cut, len(payload))
		}
	}
	if _, err := decodeCheckpoint(append(payload, 0)); err == nil {
		t.Fatal("a checkpoint with a trailing byte decoded")
	}
}

// TestGobCheckpointRefused pins what a checkpoint an earlier build wrote
// — the gob-encoded record — meets: LoadCheckpoint refuses it, naming the
// format this build reads, instead of resuming from a misread record.
func TestGobCheckpointRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sampleCheckpointRecord()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := ckpt.Save(dir, 0, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(dir)
	if want := fmt.Sprintf("not format %d", checkpointFormat); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadCheckpoint of a gob checkpoint: %v, want an error naming %q", err, want)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes, inside a valid ckpt frame, to
// LoadCheckpoint: it must return an error or a record, never panic.
func FuzzLoadCheckpoint(f *testing.F) {
	rec := sampleCheckpointRecord()
	f.Add(rec.encode())
	f.Add([]byte{checkpointFormat})
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		if _, err := ckpt.Save(dir, 0, payload); err != nil {
			t.Fatal(err)
		}
		LoadCheckpoint(dir)
	})
}

// TestCheckpointingDoesNotTouchTheWire pins the wire contract: a
// checkpointed run exchanges exactly the same bytes and messages as an
// uncheckpointed one and learns the same theory — the durability layer
// lives entirely beside the protocol. What it may cost is time: a snapshot
// must name a settled theory, so a checkpointing master waits out every
// adoption barrier that an idle boundary overlaps with the next epoch
// (DESIGN.md §8), and its makespan can only be the longer one.
func TestCheckpointingDoesNotTouchTheWire(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	base, err := Learn(kb, pos, neg, ms, testConfig(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4, 0)
	cfg.CheckpointDir = t.TempDir()
	ck, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ck.Theory) != fmt.Sprint(base.Theory) {
		t.Errorf("theory changed under checkpointing:\n got: %v\nwant: %v", ck.Theory, base.Theory)
	}
	if ck.CommBytes != base.CommBytes || ck.CommMessages != base.CommMessages {
		t.Errorf("traffic changed under checkpointing: got %d bytes/%d msgs, want %d/%d",
			ck.CommBytes, ck.CommMessages, base.CommBytes, base.CommMessages)
	}
	if ck.VirtualTime < base.VirtualTime {
		t.Errorf("checkpointed run finished earlier than the overlapped one: got %v, want ≥ %v", ck.VirtualTime, base.VirtualTime)
	}
	if ck, err := LoadCheckpoint(cfg.CheckpointDir); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	} else if ck.Epoch() < 0 || ck.Fingerprint() == 0 {
		t.Fatalf("checkpoint carries no fingerprint: %+v", ck.rec)
	}
}

// crashRestartRun drives one simulated p²-mdie run whose master is killed
// by the faultline schedule at the crashAt'th protocol op (0 = never) and
// then restarted from its latest durable checkpoint, taking over the same
// transport node — the simulation analogue of `kill -9` plus `p2mdie
// -resume`. The workers are never told: exactly as in a real master crash
// they sit blocked mid-epoch until the resumed master's handshake reaches
// them. The learned theory must cover every positive. Returns the final
// metrics and the total op count observed.
func crashRestartRun(t *testing.T, crashAt int64, dir string) (*Metrics, int64) {
	t.Helper()
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(4, 0)
	cfg.CheckpointDir = dir
	cfg.Fingerprint = Fingerprint(kb, pos, neg)
	cfg.RecvTimeout = 30 * time.Second // a wedged resume must fail, not hang the test
	cfgd := cfg.withDefaults()
	p := cfgd.Workers

	posParts, negParts := splitExamples(pos, neg, p, cfgd.Seed)
	nw := cluster.NewNetwork(p+1, cfgd.Cost)
	var wg sync.WaitGroup
	for k := 1; k <= p; k++ {
		w := newWorker(k, p, nw.Node(k), kb, search.NewExamples(posParts[k-1], negParts[k-1]), ms, cfgd)
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
	node0 := nw.Node(0)
	fl := faultline.Wrap(node0, faultline.Plan{CrashAtOp: crashAt})
	ma := newMaster(fl, p, cfgd, metrics, len(pos), posParts, negParts)
	err := ma.run()
	if err == nil {
		metrics.Theory = ma.theory
		wg.Wait()
		theoryCoversAll(t, kb, metrics.Theory, pos)
		return metrics, fl.Ops()
	}
	if !errors.Is(err, faultline.ErrCrashed) {
		nw.Shutdown()
		t.Fatalf("master failed outside the schedule: %v", err)
	}

	// The restart: a fresh master process loads the checkpoint and takes
	// over the dead master's endpoint.
	chk, lerr := LoadCheckpoint(dir)
	if lerr != nil {
		nw.Shutdown()
		t.Fatalf("crash at op %d: load checkpoint: %v", crashAt, lerr)
	}
	if chk.Fingerprint() != cfg.Fingerprint {
		nw.Shutdown()
		t.Fatalf("crash at op %d: checkpoint fingerprint %x, want %x", crashAt, chk.Fingerprint(), cfg.Fingerprint)
	}
	m2 := &Metrics{}
	rcfg := chk.rec.config(cfg).withDefaults()
	ma2 := resumedMaster(node0, chk, rcfg, m2, false)
	if err := ma2.run(); err != nil {
		nw.Shutdown()
		t.Fatalf("crash at op %d: resumed master: %v", crashAt, err)
	}
	m2.Theory = ma2.theory
	wg.Wait()
	theoryCoversAll(t, kb, m2.Theory, pos)
	return m2, fl.Ops()
}

// TestSimCrashRestartByteIdentity is the tentpole acceptance check on the
// simulated transport: kill the master at a sweep of protocol points,
// restart it from its durable checkpoint, and require the learned theory
// to be identical to the failure-free run's every time, and the epoch and
// rule counts too: the checkpoint carries them across the restart. The
// stop window (the final kindStop broadcast) is excluded — workers that
// already received their stop have exited, and a crash there has nothing
// left to resume (documented caveat, DESIGN.md §8).
//
// The first leg learns makeTask in one epoch, so it sweeps every phase of
// an epoch; the second learns makeWideTask in several, so most of its
// crash points resume a master past a completed epoch.
func TestSimCrashRestartByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-point sweep is slow")
	}
	t.Run("one epoch", func(t *testing.T) {
		crashSweep(t, 1, func(crashAt int64) (*Metrics, int64) {
			return crashRestartRun(t, crashAt, t.TempDir())
		})
	})
	t.Run("several epochs", func(t *testing.T) {
		crashSweep(t, 3, func(crashAt int64) (*Metrics, int64) {
			cfg := testConfig(3, 10)
			cfg.CheckpointDir = t.TempDir()
			return redealRun(t, 3, cfg, crashAt, nil)
		})
	})
}

// crashSweep runs the failure-free probe (crashAt 0), which must take at
// least minEpochs epochs, then a crash at every protocol op when cheap,
// else at ~24 evenly spaced ones plus the earliest (mid-load) and latest
// resumable one, and holds every resumed run to the probe's theory, epochs
// and rule count.
func crashSweep(t *testing.T, minEpochs int, run func(crashAt int64) (*Metrics, int64)) {
	t.Helper()
	base, total := run(0)
	if total < 10 {
		t.Fatalf("probe run counted only %d ops", total)
	}
	if base.Epochs < minEpochs {
		t.Fatalf("probe run learned in %d epochs, want at least %d", base.Epochs, minEpochs)
	}
	want := fmt.Sprint(base.Theory)
	last := total - int64(base.Workers) // exclude the stop broadcast window
	stride := max(1, last/24)
	points := []int64{1, last}
	for op := stride; op < last; op += stride {
		points = append(points, op)
	}
	for _, op := range points {
		met, _ := run(op)
		if t.Failed() {
			t.Fatalf("aborting sweep at op %d", op)
		}
		if got := fmt.Sprint(met.Theory); got != want {
			t.Fatalf("crash at op %d: theory diverged\n got: %s\nwant: %s", op, got, want)
		}
		if met.MasterRestarts != 1 {
			t.Fatalf("crash at op %d: MasterRestarts = %d, want 1", op, met.MasterRestarts)
		}
		if met.Epochs != base.Epochs || met.RulesLearned != base.RulesLearned {
			t.Fatalf("crash at op %d: resumed run counted %d epochs and %d rules, the failure-free run %d and %d",
				op, met.Epochs, met.RulesLearned, base.Epochs, base.RulesLearned)
		}
	}
}

// TestOrphanRegimeFollowsCheckpoint pins where the orphan regime comes
// from: the load settings a master ships (kindLoad, and kindWelcome to a
// joiner) carry OrphanTimeout = resumeWindow exactly when the master
// checkpoints, for a fresh master and a resumed one alike. A resumed master
// derives it from its own CheckpointDir, not from the checkpoint record.
func TestOrphanRegimeFollowsCheckpoint(t *testing.T) {
	ck := sampleCheckpointRecord() // its Load carries a 30 s OrphanTimeout
	for _, tc := range []struct {
		name string
		cfg  Config
		want time.Duration
	}{
		{"initial load, no checkpoint", Config{}, 0},
		{"initial load, checkpoint", Config{CheckpointDir: t.TempDir()}, resumeWindow},
		{"resumed welcome, no checkpoint", ck.config(Config{}), 0},
		{"resumed welcome, checkpoint", ck.config(Config{CheckpointDir: t.TempDir()}), resumeWindow},
	} {
		if got := tc.cfg.loadSettings().OrphanTimeout; got != tc.want {
			t.Errorf("%s: OrphanTimeout %v, want %v", tc.name, got, tc.want)
		}
	}
}
