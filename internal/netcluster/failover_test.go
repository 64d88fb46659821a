package netcluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The failure contract (cluster.Transport.ReceiveCtx): a peer death
// must arrive as an in-band KindPeerDown membership event, leave the
// transport usable towards the survivors, and make sends to the dead peer
// fail with cluster.ErrPeerDown — the contract core's epoch engine is
// built on.

func receiveKind(t *testing.T, n *Node, timeout time.Duration) cluster.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	msg, err := n.ReceiveCtx(ctx)
	if err != nil {
		t.Fatalf("node %d receive: %v", n.ID(), err)
	}
	return msg
}

func TestPeerDeathBecomesMembershipEvent(t *testing.T) {
	cfg := Config{
		Fingerprint:    7,
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    300 * time.Millisecond,
	}
	master, workers := startCluster(t, 2, cfg)
	master.NotifyFailures(true)

	if got := master.Members(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("initial members = %v", got)
	}

	// Worker 2 crashes (Abort slams the links without goodbyes).
	workers[2].Abort()

	msg := receiveKind(t, master, 10*time.Second)
	if msg.Kind != cluster.KindPeerDown || msg.From != 2 {
		t.Fatalf("got %+v, want KindPeerDown from 2", msg)
	}
	if msg.Cause == nil || !strings.Contains(msg.Cause.Error(), "link to node 2 failed") {
		t.Fatalf("cause = %v, want the failure the master's link to node 2 detected", msg.Cause)
	}
	if got := master.Members(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("members after death = %v", got)
	}

	// The transport stays usable towards the survivor...
	if err := master.Send(1, 5, payload{N: 1, S: "still here"}); err != nil {
		t.Fatalf("send to survivor: %v", err)
	}
	got := receiveKind(t, workers[1], 5*time.Second)
	if got.Kind != 5 {
		t.Fatalf("survivor got %+v", got)
	}

	// ...and sends to the dead peer fail fast with ErrPeerDown.
	if err := master.Send(2, 5, payload{}); !errors.Is(err, cluster.ErrPeerDown) {
		t.Fatalf("send to dead peer: %v, want ErrPeerDown", err)
	}
}

func TestPeerDeathEventIsDeliveredOnce(t *testing.T) {
	cfg := Config{
		Fingerprint:    7,
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    200 * time.Millisecond,
	}
	master, workers := startCluster(t, 2, cfg)
	master.NotifyFailures(true)
	workers[2].Abort()

	msg := receiveKind(t, master, 10*time.Second)
	if msg.Kind != cluster.KindPeerDown || msg.From != 2 {
		t.Fatalf("got %+v", msg)
	}
	// Both the reader error and the heartbeat timeout will observe the
	// death; only one event may surface. Nothing else should arrive.
	ctx, cancel := context.WithTimeout(context.Background(), 3*cfg.PeerTimeout)
	defer cancel()
	if extra, err := master.ReceiveCtx(ctx); err == nil {
		t.Fatalf("unexpected second event: %+v", extra)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
}

// TestSilentPeerBecomesMembershipEvent: a hung (not closed) peer times out
// via heartbeats and surfaces as a membership event, naming the peer.
func TestSilentPeerBecomesMembershipEvent(t *testing.T) {
	cfg := Config{
		Fingerprint:    7,
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    150 * time.Millisecond,
	}
	master, workers := startCluster(t, 1, cfg)
	master.NotifyFailures(true)
	// Hang (rather than close) the worker: holding its links' write
	// mutexes blocks its heartbeater, so its sockets stay open but go
	// silent — the SIGSTOP/blackhole failure mode. The master must time
	// the peer out and name it in a membership event.
	w := workers[1]
	w.mu.Lock()
	links := append([]*link(nil), w.all...)
	w.mu.Unlock()
	for _, l := range links {
		l.wmu.Lock()
	}
	defer func() {
		for _, l := range links {
			l.wmu.Unlock()
		}
	}()

	msg := receiveKind(t, master, 10*time.Second)
	if msg.Kind != cluster.KindPeerDown || msg.From != 1 {
		t.Fatalf("got %+v, want KindPeerDown from 1", msg)
	}
	if msg.Cause == nil || !strings.Contains(msg.Cause.Error(), "PeerTimeout") {
		t.Fatalf("cause = %v, want the heartbeat expiry", msg.Cause)
	}
}
