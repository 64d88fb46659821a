package core

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/netcluster"
	"repro/internal/solve"
)

// peerUpFirst wraps the master's transport so that the late joiner's
// KindPeerUp is the first thing the protocol receives: whatever arrives
// ahead of it queues, in order, and is handed over right after it. The
// netcluster handshake commits on an accept goroutine whenever the kernel
// lets it — under load that can be after epoch 1's first replies — and
// the master admits a joiner at the first boundary after it has seen the
// event. With the wrapper that boundary is named (the first), not raced.
type peerUpFirst struct {
	cluster.Transport
	seen  bool
	queue []cluster.Message
}

func (p *peerUpFirst) ReceiveCtx(ctx context.Context) (cluster.Message, error) {
	for !p.seen {
		msg, err := p.Transport.ReceiveCtx(ctx)
		if err != nil {
			return msg, err
		}
		if msg.Kind == cluster.KindPeerUp {
			p.seen = true
			return msg, nil
		}
		p.queue = append(p.queue, msg)
	}
	if len(p.queue) > 0 {
		msg := p.queue[0]
		p.queue = p.queue[1:]
		return msg, nil
	}
	return p.Transport.ReceiveCtx(ctx)
}

func (p *peerUpFirst) Traffic() cluster.Traffic {
	return p.Transport.(cluster.TrafficReporter).Traffic()
}
func (p *peerUpFirst) Inner() cluster.Transport { return p.Transport }

// joinCluster is a TCP master with two workers and a third that joined
// late, all running the ordinary remote worker loop: everything the joiner
// needs — settings, ring, share — arrives over the protocol. Every node,
// the master too (joinConfig), bounds its receives, so a stall fails with
// the phase and the pending set instead of hanging the test binary.
type joinCluster struct {
	master  *netcluster.Node
	workers chan *netcluster.Node // the two initial workers' endpoints
	errs    chan error            // one per worker, joiner included
}

func startJoinCluster(t *testing.T, kb *solve.KB, pos, neg []logic.Term, ms *mode.Set) *joinCluster {
	t.Helper()
	c := &joinCluster{workers: make(chan *netcluster.Node, 2), errs: make(chan error, 3)}
	ncfg := netcluster.Config{Fingerprint: Fingerprint(kb, pos, neg)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var errCh chan error
	c.master, errCh = startNetClusterOn(t, ln, 2, ncfg, func(node *netcluster.Node) error {
		c.workers <- node
		return RunWorker(node, kb, ms, Config{RecvTimeout: joinRecvTimeout})
	})
	jnode, err := netcluster.Join(c.master.Addr(), "127.0.0.1:0", ncfg)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	go func() {
		defer jnode.Close()
		c.errs <- RunWorker(jnode, kb, ms, Config{RecvTimeout: joinRecvTimeout})
	}()
	go func() {
		c.errs <- <-errCh
		c.errs <- <-errCh
	}()
	return c
}

// joinRecvTimeout bounds every receive of a joinCluster run.
const joinRecvTimeout = 30 * time.Second

// joinConfig is the master's configuration for a joinCluster run.
func joinConfig() Config {
	cfg := testConfig(2, 10)
	cfg.RecvTimeout = joinRecvTimeout
	return cfg
}

// finish closes the master and collects every worker's exit.
func (c *joinCluster) finish(t *testing.T) {
	t.Helper()
	c.master.Close()
	for k := 0; k < 3; k++ {
		if werr := <-c.errs; werr != nil {
			t.Fatalf("worker error: %v", werr)
		}
	}
}

// TestRemoteJoinMidRun attaches a third worker to a live TCP master: it
// must be welcomed with the full remote settings, dealt a non-empty share
// at the rebalance barrier, participate in the ring, and report a final
// like any other worker. Its KindPeerUp reaches the master's protocol
// first (peerUpFirst), so the admission is at the first boundary.
func TestRemoteJoinMidRun(t *testing.T) {
	kb, pos, neg, ms := makeWideTask(t)
	c := startJoinCluster(t, kb, pos, neg, ms)
	met, err := RunMaster(&peerUpFirst{Transport: c.master}, pos, neg, joinConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.finish(t)

	if met.JoinedWorkers != 1 {
		t.Fatalf("JoinedWorkers = %d, want 1", met.JoinedWorkers)
	}
	if met.Rebalances < 1 {
		t.Fatalf("Rebalances = %d, want ≥ 1", met.Rebalances)
	}
	if len(met.JoinShares) != 1 || met.JoinShares[0] == 0 {
		t.Fatalf("JoinShares = %v, want one non-empty share", met.JoinShares)
	}
	theoryCoversAll(t, kb, met.Theory, pos)
	// The joiner is a first-class member: its links appear in the global
	// traffic table (it must at least have answered the master), and the
	// table covers the grown cluster.
	if met.Traffic.N != 4 {
		t.Fatalf("traffic table over %d nodes, want 4", met.Traffic.N)
	}
	if met.Traffic.LinkMsgs(3, 0) == 0 {
		t.Fatalf("joiner sent nothing to the master: %v", met.Traffic.Links())
	}
}

// simJoinAtFirstBoundary is the simulated run a TCP run with a late joiner
// must reproduce: same task, the joiner spawned at the first epoch boundary.
func simJoinAtFirstBoundary(t *testing.T, kb *solve.KB, pos, neg []logic.Term, ms *mode.Set) *Metrics {
	t.Helper()
	cfg := testConfig(2, 10)
	cfg.JoinEpochs = []int{1}
	sim, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.JoinedWorkers != 1 {
		t.Fatalf("sim JoinedWorkers = %d", sim.JoinedWorkers)
	}
	return sim
}

// TestRemoteJoinMatchesSimJoin pins cross-transport parity for elastic
// runs: a TCP run whose master receives the joiner's KindPeerUp first —
// during epoch 1, so admission lands at the first boundary — learns the
// same theory as a simulated run with a JoinEpochs entry of 1.
func TestRemoteJoinMatchesSimJoin(t *testing.T) {
	kb, pos, neg, ms := makeWideTask(t)
	sim := simJoinAtFirstBoundary(t, kb, pos, neg, ms)
	c := startJoinCluster(t, kb, pos, neg, ms)
	// The join arrives via the transport, not JoinEpochs.
	met, err := RunMaster(&peerUpFirst{Transport: c.master}, pos, neg, joinConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.finish(t)
	assertSameElasticRun(t, met, sim)
}

// TestRemoteJoinAfterCommitBeforeRunMaster is the root cause of ROADMAP
// item 1(b) held still: the master's accept goroutine has committed the
// late join — grown size, link, address book, ctrlPeerUpdate sent — before
// RunMaster reads the transport's size. The joiner must still be a joiner
// (two initial workers, one admission at the first boundary), not a third
// initial worker; no wrapper here, the transport itself has to say so.
func TestRemoteJoinAfterCommitBeforeRunMaster(t *testing.T) {
	kb, pos, neg, ms := makeWideTask(t)
	sim := simJoinAtFirstBoundary(t, kb, pos, neg, ms)
	c := startJoinCluster(t, kb, pos, neg, ms)
	// A worker that has seen the grown address book proves the commit is
	// behind us: the master writes the update after it.
	w := <-c.workers
	for deadline := time.Now().Add(10 * time.Second); w.Size() < 4; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never saw the joiner's address-book update", w.ID())
		}
	}
	met, err := RunMaster(c.master, pos, neg, joinConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.finish(t)
	if met.Workers != 2 || met.JoinedWorkers != 1 {
		t.Fatalf("Workers = %d, JoinedWorkers = %d: want 2 initial workers and 1 joiner", met.Workers, met.JoinedWorkers)
	}
	assertSameElasticRun(t, met, sim)
}

func assertSameElasticRun(t *testing.T, met, sim *Metrics) {
	t.Helper()
	if len(met.Theory) != len(sim.Theory) {
		t.Fatalf("theory sizes differ: net %d vs sim %d", len(met.Theory), len(sim.Theory))
	}
	for i := range met.Theory {
		if met.Theory[i].String() != sim.Theory[i].String() {
			t.Fatalf("rule %d differs:\nnet: %s\nsim: %s", i, met.Theory[i], sim.Theory[i])
		}
	}
	if met.Epochs != sim.Epochs || met.JoinedWorkers != sim.JoinedWorkers || met.Rebalances != sim.Rebalances {
		t.Fatalf("run shape differs: net epochs=%d joined=%d rebal=%d vs sim epochs=%d joined=%d rebal=%d",
			met.Epochs, met.JoinedWorkers, met.Rebalances, sim.Epochs, sim.JoinedWorkers, sim.Rebalances)
	}
	if met.TotalInferences != sim.TotalInferences {
		t.Fatalf("inference totals differ: net %d vs sim %d", met.TotalInferences, sim.TotalInferences)
	}
}
