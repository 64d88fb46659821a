package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/netcluster"
)

// crashOn wraps a netcluster node and crashes the process's end of the
// cluster (Abort: links slam shut, no goodbyes — indistinguishable from a
// kill) the first time a message of the given kind is received. It lets a
// test lose a real TCP worker at a precise protocol point.
type crashOn struct {
	*netcluster.Node
	kind int
	once sync.Once
	hit  bool
}

func (c *crashOn) ReceiveCtx(ctx context.Context) (cluster.Message, error) {
	msg, err := c.Node.ReceiveCtx(ctx)
	if err == nil && msg.Kind == c.kind {
		c.once.Do(func() {
			c.hit = true
			c.Node.Abort()
		})
	}
	if c.hit {
		return cluster.Message{}, cluster.ErrClosed
	}
	return msg, err
}

// TestRemoteRecoverFromWorkerCrash is the TCP counterpart of the simulated
// chaos tests: one of three real loopback workers crashes the moment the
// first bag evaluation reaches it — mid-epoch, with its reply owed — and
// the master must exclude it, redistribute its partition and finish on the
// two survivors with a complete theory.
func TestRemoteRecoverFromWorkerCrash(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(3, 10)
	cfg.Recover = true
	cfg.RecvTimeout = 60 * time.Second
	ncfg := netcluster.Config{
		Fingerprint:    Fingerprint(kb, pos, neg),
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    500 * time.Millisecond,
	}
	master, errCh := startNetCluster(t, 3, ncfg, func(node *netcluster.Node) error {
		if node.ID() == 2 {
			return RunWorker(&crashOn{Node: node, kind: kindEvaluate}, kb, ms, Config{})
		}
		return RunWorker(node, kb, ms, Config{})
	})
	met, err := RunMaster(master, pos, neg, cfg)
	if err != nil {
		t.Fatalf("RunMaster failed despite recovery: %v", err)
	}
	master.Close()
	for k := 0; k < 3; k++ {
		<-errCh // survivors exit cleanly; the crashed worker's error is expected
	}
	if met.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want ≥ 1", met.Recoveries)
	}
	if met.LostWorkers != 1 {
		t.Fatalf("LostWorkers = %d, want 1", met.LostWorkers)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
	if met.VirtualTime <= 0 {
		t.Fatalf("virtual time not accounted: %v", met.VirtualTime)
	}
}

// TestRemoteFailStopOnWorkerCrash is the fail-stop twin of
// TestRemoteRecoverFromWorkerCrash: without Recover, the crash arrives as
// a membership event and fails the run at once, naming the dead worker —
// not after RecvTimeout, and without leaving any worker behind.
func TestRemoteFailStopOnWorkerCrash(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(3, 10)
	cfg.RecvTimeout = 60 * time.Second
	ncfg := netcluster.Config{
		Fingerprint:    Fingerprint(kb, pos, neg),
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    500 * time.Millisecond,
	}
	master, errCh := startNetCluster(t, 3, ncfg, func(node *netcluster.Node) error {
		if node.ID() == 2 {
			return RunWorker(&crashOn{Node: node, kind: kindEvaluate}, kb, ms, Config{})
		}
		return RunWorker(node, kb, ms, Config{})
	})
	start := time.Now()
	_, err := RunMaster(master, pos, neg, cfg)
	if err == nil || !strings.Contains(err.Error(), "worker 2 failed and recovery is disabled") {
		t.Fatalf("err = %v, want worker 2's fail-stop error", err)
	}
	// The error ends with the cause of the death: what the master's own
	// link to the crashed worker detected (EOF here; a heartbeat expiry,
	// had the crash hung instead of closing the sockets), or, when a
	// sibling's suspicion arrives first, that sibling's report.
	if msg := err.Error(); !strings.Contains(msg, ": netcluster: node 0: link to node 2 failed: ") &&
		!strings.Contains(msg, " reports its link to worker 2 failed") {
		t.Fatalf("err = %v, want it to end with the cause of worker 2's death", err)
	}
	if took := time.Since(start); took > cfg.RecvTimeout/4 {
		t.Fatalf("fail-stop took %s: the death was not announced", took)
	}
	t.Log(err)
	master.Abort() // as p2mdie does on a failed run
	deadline := time.After(30 * time.Second)
	for k := 0; k < 3; k++ {
		select {
		case <-errCh:
		case <-deadline:
			t.Fatalf("%d of 3 workers still running after the master failed", 3-k)
		}
	}
}

// TestRemoteRecoverCrashAfterStop pins the draining rule: once kindStop
// is out the run result is complete, so a worker dying before delivering
// its final report — even the only worker — must forfeit just the report,
// not the run.
func TestRemoteRecoverCrashAfterStop(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(1, 10)
	cfg.Recover = true
	cfg.RecvTimeout = 60 * time.Second
	ncfg := netcluster.Config{
		Fingerprint:    Fingerprint(kb, pos, neg),
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    500 * time.Millisecond,
	}
	master, errCh := startNetCluster(t, 1, ncfg, func(node *netcluster.Node) error {
		return RunWorker(&crashOn{Node: node, kind: kindStop}, kb, ms, Config{})
	})
	met, err := RunMaster(master, pos, neg, cfg)
	if err != nil {
		t.Fatalf("RunMaster failed on a completed run: %v", err)
	}
	master.Close()
	<-errCh
	if met.LostWorkers != 1 {
		t.Fatalf("LostWorkers = %d, want 1", met.LostWorkers)
	}
	if met.Recoveries != 0 {
		t.Fatalf("Recoveries = %d, want 0 (death after stop needs no recovery)", met.Recoveries)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
}

// TestRemoteRecoverCrashDuringPipelines loses the worker while pipelines
// are in flight (first stage hand-off it receives), so the master is
// blocked waiting for rules that will never arrive and must be unblocked
// by the membership event, not a timeout.
func TestRemoteRecoverCrashDuringPipelines(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(3, 10)
	cfg.Recover = true
	cfg.RecvTimeout = 60 * time.Second
	ncfg := netcluster.Config{
		Fingerprint:    Fingerprint(kb, pos, neg),
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    500 * time.Millisecond,
	}
	master, errCh := startNetCluster(t, 3, ncfg, func(node *netcluster.Node) error {
		if node.ID() == 3 {
			return RunWorker(&crashOn{Node: node, kind: kindStage}, kb, ms, Config{})
		}
		return RunWorker(node, kb, ms, Config{})
	})
	met, err := RunMaster(master, pos, neg, cfg)
	if err != nil {
		t.Fatalf("RunMaster failed despite recovery: %v", err)
	}
	master.Close()
	for k := 0; k < 3; k++ {
		<-errCh
	}
	if met.Recoveries < 1 || met.LostWorkers != 1 {
		t.Fatalf("Recoveries = %d LostWorkers = %d", met.Recoveries, met.LostWorkers)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
}

// loadAfterPeerDown wraps a worker's transport and holds back everything it
// receives — its kindLoad first — until the transport has reported a
// sibling's death, then hands the backlog over in order, the death last. It
// is a worker too slow to have reached its kindLoad when the crash happens:
// the cluster-wide failure regime travels in that message, so whatever the
// transport does with the death, it does before the worker knows the regime.
// The hold also ends when the master sends anything but the load and the
// pipeline start — its recovery is already waiting on this worker, which
// happens when the sibling crashed before it ever dialed here.
type loadAfterPeerDown struct {
	cluster.Transport
	backlog  []cluster.Message
	released bool
}

func (l *loadAfterPeerDown) ReceiveCtx(ctx context.Context) (cluster.Message, error) {
	for !l.released {
		msg, err := l.Transport.ReceiveCtx(ctx)
		if err != nil {
			return msg, err // a transport poisoned by the death
		}
		l.backlog = append(l.backlog, msg)
		l.released = msg.Kind == cluster.KindPeerDown ||
			msg.From == 0 && msg.Kind != kindLoad && msg.Kind != kindStartPipeline
	}
	if len(l.backlog) > 0 {
		msg := l.backlog[0]
		l.backlog = l.backlog[1:]
		return msg, nil
	}
	return l.Transport.ReceiveCtx(ctx)
}

func (l *loadAfterPeerDown) Traffic() cluster.Traffic {
	return l.Transport.(cluster.TrafficReporter).Traffic()
}
func (l *loadAfterPeerDown) Inner() cluster.Transport { return l.Transport }

// TestRemoteRecoverCrashBeforeSiblingLoaded holds still the interleaving
// behind TestRemoteRecoverCrashDuringPipelines' rare "LostWorkers = 2"
// (ROADMAP item 1(f)): worker 3 loads, forwards its first stage to worker 1
// and crashes on the stage it receives, all before worker 1 has processed
// its own kindLoad. Worker 1 is healthy and must survive to take its share
// of the redistribution.
func TestRemoteRecoverCrashBeforeSiblingLoaded(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(3, 10)
	cfg.Recover = true
	cfg.RecvTimeout = 60 * time.Second
	ncfg := netcluster.Config{
		Fingerprint:    Fingerprint(kb, pos, neg),
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    500 * time.Millisecond,
	}
	master, errCh := startNetCluster(t, 3, ncfg, func(node *netcluster.Node) error {
		switch node.ID() {
		case 1:
			return RunWorker(&loadAfterPeerDown{Transport: node}, kb, ms, Config{})
		case 3:
			return RunWorker(&crashOn{Node: node, kind: kindStage}, kb, ms, Config{})
		}
		return RunWorker(node, kb, ms, Config{})
	})
	met, err := RunMaster(master, pos, neg, cfg)
	if err != nil {
		t.Fatalf("RunMaster failed despite recovery: %v", err)
	}
	master.Close()
	for k := 0; k < 3; k++ {
		<-errCh
	}
	if met.Recoveries < 1 || met.LostWorkers != 1 {
		t.Fatalf("Recoveries = %d LostWorkers = %d", met.Recoveries, met.LostWorkers)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
}
