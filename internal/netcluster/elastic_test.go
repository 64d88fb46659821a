package netcluster

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The late-join suite: a running master admits a new worker mid-run, the
// address book propagates, and the joiner becomes a first-class peer —
// reachable from the master, from the ring, and in the traffic accounting.

// joinLate attaches one extra worker to a running master that listens
// for joins (startClusterOn).
func joinLate(t *testing.T, master *Node, cfg Config) *Node {
	t.Helper()
	j, err := Join(master.Addr(), "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestLateJoinAdmitsWorker(t *testing.T) {
	cfg := Config{Fingerprint: 42}
	master, workers := startClusterOn(t, listen(t), 2, cfg)
	joiner := joinLate(t, master, cfg)

	if joiner.ID() != 3 || joiner.Size() != 4 {
		t.Fatalf("joiner id=%d size=%d, want 3 of 4", joiner.ID(), joiner.Size())
	}
	// The master's protocol surface sees the join as an in-band event.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	msg, err := master.ReceiveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != cluster.KindPeerUp || msg.From != 3 {
		t.Fatalf("master got %+v, want KindPeerUp from 3", msg)
	}
	if master.Size() != 4 {
		t.Fatalf("master size = %d, want 4", master.Size())
	}

	// Master ↔ joiner exchange works like any other link.
	if err := master.Send(3, 7, payload{N: 1, S: "welcome"}); err != nil {
		t.Fatal(err)
	}
	jm, err := joiner.ReceiveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if jm.From != 0 || jm.Kind != 7 {
		t.Fatalf("joiner got %+v", jm)
	}
	if err := joiner.Send(0, 8, payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := master.ReceiveCtx(ctx); err != nil {
		t.Fatal(err)
	}

	// The existing workers' address books grew (ctrlPeerUpdate), so a
	// ring link to the joiner dials lazily — and the reverse direction
	// works too, closing the ring.
	waitForSize(t, workers[1], 4)
	if err := workers[1].Send(3, 9, payload{N: 3}); err != nil {
		t.Fatalf("ring send to joiner: %v", err)
	}
	rm, err := joiner.ReceiveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rm.From != 1 || rm.Kind != 9 {
		t.Fatalf("joiner ring message: %+v", rm)
	}
	if err := joiner.Send(1, 10, payload{N: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := workers[1].ReceiveCtx(ctx); err != nil {
		t.Fatal(err)
	}

	// Traffic tables grew with the cluster; joiner links are accounted.
	mt := master.Traffic()
	if mt.N != 4 || mt.LinkMsgs(0, 3) != 1 {
		t.Fatalf("master traffic after join: n=%d %v", mt.N, mt.Links())
	}
	jt := joiner.Traffic()
	if jt.LinkMsgs(3, 0) != 1 || jt.LinkMsgs(3, 1) != 1 {
		t.Fatalf("joiner traffic: %v", jt.Links())
	}
}

// TestLateJoinVisibleOnPeerUpDelivery pins what Size and Members mean on a
// master with late joins: the membership the protocol has been told about.
// The handshake's commit runs on the accept goroutine whenever the kernel
// lets it; a protocol about to size itself off Size() (core.RunMaster) must
// not find the joiner there before its KindPeerUp has been received — that
// race dealt the joiner in as an initial worker (ROADMAP item 1(b)).
func TestLateJoinVisibleOnPeerUpDelivery(t *testing.T) {
	cfg := Config{Fingerprint: 42}
	master, workers := startClusterOn(t, listen(t), 2, cfg)
	joinLate(t, master, cfg)
	// A worker that has seen the ctrlPeerUpdate proves the master's commit
	// is behind us: the update is written after it.
	waitForSize(t, workers[1], 4)
	if got := master.Size(); got != 3 {
		t.Fatalf("master Size() = %d after the commit but before the KindPeerUp was received, want 3", got)
	}
	if got := master.Members(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("master Members() = %v before the KindPeerUp was received, want [1 2]", got)
	}
	// The commit itself is complete: the joiner is reachable.
	if err := master.Send(3, 7, payload{N: 1}); err != nil {
		t.Fatalf("send to the committed joiner: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	msg, err := master.ReceiveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != cluster.KindPeerUp || msg.From != 3 {
		t.Fatalf("master got %+v, want KindPeerUp from 3", msg)
	}
	if got := master.Size(); got != 4 {
		t.Fatalf("master Size() = %d once the KindPeerUp was received, want 4", got)
	}
	if got := master.Members(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("master Members() = %v once the KindPeerUp was received, want [1 2 3]", got)
	}
}

// waitForSize polls until the node has observed the grown cluster (the
// ctrlPeerUpdate travels asynchronously on the master link).
func waitForSize(t *testing.T, n *Node, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.Size() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %d never saw size %d (still %d)", n.ID(), want, n.Size())
}

func TestLateJoinFingerprintMismatchRefused(t *testing.T) {
	cfg := Config{Fingerprint: 42}
	master, _ := startClusterOn(t, listen(t), 1, cfg)
	j, err := Join(master.Addr(), "127.0.0.1:0", Config{Fingerprint: 7, JoinTimeout: 5 * time.Second})
	if err == nil {
		j.Close()
		t.Fatal("join with mismatched fingerprint accepted")
	}
	// The cluster is unchanged and still functional.
	if master.Size() != 2 {
		t.Fatalf("master size = %d after refused join", master.Size())
	}
}

func TestLateJoinRefusedByWorker(t *testing.T) {
	// Only the master admits joins: a join request aimed at a worker's
	// listener must be dropped, not corrupt the worker.
	cfg := Config{Fingerprint: 42, JoinTimeout: 2 * time.Second}
	_, workers := startCluster(t, 1, cfg)
	j, err := Join(workers[1].Addr(), "127.0.0.1:0", cfg)
	if err == nil {
		j.Close()
		t.Fatal("worker accepted a join request")
	}
}

func TestLateJoinSequential(t *testing.T) {
	// Two joiners one after the other get distinct ids and both work.
	cfg := Config{Fingerprint: 42}
	master, _ := startClusterOn(t, listen(t), 1, cfg)
	j1, err := Join(master.Addr(), "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()
	j2, err := Join(master.Addr(), "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j1.ID() != 2 || j2.ID() != 3 {
		t.Fatalf("joiner ids %d, %d — want 2, 3", j1.ID(), j2.ID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for want := 2; want <= 3; want++ {
		msg, err := master.ReceiveCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Kind != cluster.KindPeerUp || msg.From != want {
			t.Fatalf("got %+v, want KindPeerUp from %d", msg, want)
		}
	}
	if err := master.Broadcast([]int{1, 2, 3}, 5, payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{j1, j2} {
		if _, err := n.ReceiveCtx(ctx); err != nil {
			t.Fatalf("joiner %d receive: %v", n.ID(), err)
		}
	}
}

func TestLateJoinWithoutListenerRefused(t *testing.T) {
	// A master started without a listener (Connect) simply has no join
	// endpoint; Join against a worker-less ephemeral port fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening here any more
	_, err = Join(addr, "127.0.0.1:0", Config{JoinTimeout: time.Second})
	if err == nil {
		t.Fatal("join to a dead address succeeded")
	}
}
