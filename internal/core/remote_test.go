package core

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/netcluster"
)

// startNetCluster brings up p RunWorker goroutines over real loopback TCP
// and returns the connected master node. Worker errors surface on errCh.
func startNetCluster(t *testing.T, p int, ncfg netcluster.Config, runWorker func(*netcluster.Node) error) (*netcluster.Node, chan error) {
	t.Helper()
	return startNetClusterOn(t, nil, p, ncfg, runWorker)
}

// startNetClusterOn is startNetCluster with the master listening on ln for
// joins (netcluster.ConnectOn; nil listens on nothing, as Connect).
func startNetClusterOn(t *testing.T, ln net.Listener, p int, ncfg netcluster.Config, runWorker func(*netcluster.Node) error) (*netcluster.Node, chan error) {
	t.Helper()
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for k := 0; k < p; k++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[k] = ln
		addrs[k] = ln.Addr().String()
	}
	errCh := make(chan error, p)
	var joined sync.WaitGroup
	for k := 0; k < p; k++ {
		ln := lns[k]
		joined.Add(1)
		go func() {
			node, err := netcluster.ServeOn(ln, ncfg)
			joined.Done()
			if err != nil {
				errCh <- err
				return
			}
			err = runWorker(node)
			if err != nil {
				// As p2mdie does: peers must see a failure, not an orderly
				// departure they would wait out a whole RecvTimeout on.
				node.Abort()
			}
			node.Close()
			errCh <- err
		}()
	}
	master, err := netcluster.ConnectOn(ln, addrs, ncfg)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	joined.Wait()
	t.Cleanup(func() { master.Close() })
	return master, errCh
}

// TestRemoteMatchesSimulatedExactly is the tentpole invariant: the same
// task, seed and settings learn a byte-identical theory — with identical
// work accounting — whether the cluster is simulated in one process or
// spread over TCP.
func TestRemoteMatchesSimulatedExactly(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(2, 10)
	sim, err := Learn(kb, pos, neg, ms, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ncfg := netcluster.Config{Fingerprint: Fingerprint(kb, pos, neg)}
	master, errCh := startNetCluster(t, 2, ncfg, func(node *netcluster.Node) error {
		// Workers get no partition and no search settings up front: both
		// must arrive via kindLoad.
		return RunWorker(node, kb, ms, Config{})
	})
	met, err := RunMaster(master, pos, neg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	master.Close()
	for k := 0; k < 2; k++ {
		if werr := <-errCh; werr != nil {
			t.Fatalf("worker error: %v", werr)
		}
	}

	if len(met.Theory) != len(sim.Theory) {
		t.Fatalf("theory sizes differ: net %d vs sim %d", len(met.Theory), len(sim.Theory))
	}
	for i := range met.Theory {
		if met.Theory[i].String() != sim.Theory[i].String() {
			t.Fatalf("rule %d differs:\nnet: %s\nsim: %s", i, met.Theory[i], sim.Theory[i])
		}
	}
	if met.Epochs != sim.Epochs || met.RulesLearned != sim.RulesLearned || met.GroundFactsAdopted != sim.GroundFactsAdopted {
		t.Fatalf("run shape differs: net %+v vs sim %+v", met, sim)
	}
	if met.TotalInferences != sim.TotalInferences {
		t.Fatalf("inference totals differ: net %d vs sim %d", met.TotalInferences, sim.TotalInferences)
	}
	if met.GeneratedRules != sim.GeneratedRules {
		t.Fatalf("generated totals differ: net %d vs sim %d", met.GeneratedRules, sim.GeneratedRules)
	}

	// Traffic parity: every worker-originated link carries byte-identical
	// payloads (same gob encodings of the same protocol messages). Master
	// rows differ only on the kindLoad leg, where the network transport
	// ships the partitions the simulation hands over at construction.
	for from := 1; from <= 2; from++ {
		for to := 0; to <= 2; to++ {
			if got, want := met.Traffic.LinkBytes(from, to), sim.Traffic.LinkBytes(from, to); got != want {
				t.Errorf("link %d->%d bytes: net %d vs sim %d", from, to, got, want)
			}
			if got, want := met.Traffic.LinkMsgs(from, to), sim.Traffic.LinkMsgs(from, to); got != want {
				t.Errorf("link %d->%d msgs: net %d vs sim %d", from, to, got, want)
			}
		}
	}
	for to := 1; to <= 2; to++ {
		if got, want := met.Traffic.LinkMsgs(0, to), sim.Traffic.LinkMsgs(0, to); got != want {
			t.Errorf("link 0->%d msgs: net %d vs sim %d", to, got, want)
		}
		if got, want := met.Traffic.LinkBytes(0, to), sim.Traffic.LinkBytes(0, to); got <= want {
			t.Errorf("link 0->%d bytes: net %d should exceed sim %d (partition shipping)", to, got, want)
		}
	}
	if met.VirtualTime <= 0 {
		t.Fatalf("virtual time not accounted: %v", met.VirtualTime)
	}
}

// TestRemoteWorkerDeathFailsMaster pins the failure path: a worker process
// dying mid-run must surface as an error from RunMaster, not a hang.
func TestRemoteWorkerDeathFailsMaster(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(2, 10)
	ncfg := netcluster.Config{
		Fingerprint:    Fingerprint(kb, pos, neg),
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    200 * time.Millisecond,
	}
	died := make(chan struct{})
	master, errCh := startNetCluster(t, 2, ncfg, func(node *netcluster.Node) error {
		if node.ID() == 2 {
			// Die before serving anything.
			node.Close()
			close(died)
			return nil
		}
		return RunWorker(node, kb, ms, Config{})
	})
	<-died
	done := make(chan error, 1)
	go func() {
		_, err := RunMaster(master, pos, neg, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunMaster succeeded despite dead worker")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunMaster hung on dead worker")
	}
	master.Close()
	// Unblock the surviving worker and ignore its error (the master died
	// on it from its point of view).
	<-errCh
	<-errCh
}

// TestWorkerPanicSurfacesAsError pins the simulated transport's panic
// path: a panicking worker goroutine becomes an error from Learn.
func TestWorkerPanicSurfacesAsError(t *testing.T) {
	kb, pos, neg, ms := makeTask(t)
	cfg := testConfig(2, 10)
	cfg.Trace = func(e cluster.Event) {
		if e.Type == cluster.EvCompute && e.Node == 1 {
			panic(fmt.Sprintf("injected panic on node %d", e.Node))
		}
	}
	_, err := Learn(kb, pos, neg, ms, cfg)
	if err == nil {
		t.Fatal("Learn succeeded despite panicking worker")
	}
}
