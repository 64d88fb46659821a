package netcluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

type payload struct {
	N int
	S string
}

// The test payload has a wire encoding, like every real protocol message.
func (p payload) AppendWire(w *wire.Writer) {
	w.Int(p.N)
	w.String(p.S)
}

func (p *payload) DecodeWire(r *wire.Reader) {
	p.N = r.Int()
	p.S = r.String()
}

// startCluster brings up one master and p workers over loopback, all
// in-process. Returns the master and the workers indexed 1..p.
func startCluster(t *testing.T, p int, cfg Config) (*Node, []*Node) {
	t.Helper()
	return startClusterOn(t, nil, p, cfg)
}

// startClusterOn is startCluster with the master listening on ln for
// joins and rejoins (ConnectOn; nil listens on nothing, as Connect).
func startClusterOn(t *testing.T, ln net.Listener, p int, cfg Config) (*Node, []*Node) {
	t.Helper()
	workers := make([]*Node, p+1)
	addrs := make([]string, p)
	var wg sync.WaitGroup
	errs := make([]error, p+1)
	for k := 1; k <= p; k++ {
		// Bind first so the address is known before the master dials.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[k-1] = ln.Addr().String()
		k, ln := k, ln
		wg.Add(1)
		go func() {
			defer wg.Done()
			workers[k], errs[k] = ServeOn(ln, cfg)
		}()
	}
	master, err := ConnectOn(ln, addrs, cfg)
	wg.Wait()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	for k := 1; k <= p; k++ {
		if errs[k] != nil {
			t.Fatalf("Serve worker %d: %v", k, errs[k])
		}
	}
	t.Cleanup(func() {
		master.Close()
		for k := 1; k <= p; k++ {
			if workers[k] != nil {
				workers[k].Close()
			}
		}
	})
	return master, workers
}

func TestExchangeAndAccounting(t *testing.T) {
	cfg := Config{Fingerprint: 42}
	master, workers := startCluster(t, 2, cfg)

	if master.Size() != 3 || workers[1].Size() != 3 || workers[1].ID() != 1 || workers[2].ID() != 2 {
		t.Fatalf("bad topology: master size %d, worker ids %d %d", master.Size(), workers[1].ID(), workers[2].ID())
	}

	// Master → both workers; worker 1 → worker 2 (lazily dialed ring
	// link); worker 2 → master.
	if err := master.Broadcast([]int{1, 2}, 7, payload{N: 1, S: "go"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for k := 1; k <= 2; k++ {
		msg, err := workers[k].ReceiveCtx(ctx)
		if err != nil {
			t.Fatalf("worker %d receive: %v", k, err)
		}
		if msg.Kind != 7 || msg.From != 0 {
			t.Fatalf("worker %d got kind %d from %d", k, msg.Kind, msg.From)
		}
		var pl payload
		if err := msg.Decode(&pl); err != nil {
			t.Fatal(err)
		}
		if pl.N != 1 || pl.S != "go" {
			t.Fatalf("payload corrupted: %+v", pl)
		}
		// Receiver clock advanced to latency + bytes/bandwidth.
		want := cluster.VTime(0) + workers[k].Model().TransferTime(len(msg.Payload))
		if workers[k].Clock() != want {
			t.Fatalf("worker %d clock %d, want %d", k, workers[k].Clock(), want)
		}
	}

	workers[1].Compute(1000) // 1000 inferences = 1ms at default model
	if err := workers[1].Send(2, 8, payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	msg, err := workers[2].ReceiveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 1 || msg.Kind != 8 {
		t.Fatalf("ring message from %d kind %d", msg.From, msg.Kind)
	}
	if msg.SendTime <= 0 {
		t.Fatalf("ring message send time %d, want > 0 after Compute", msg.SendTime)
	}
	if err := workers[2].Send(0, 9, payload{N: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := master.ReceiveCtx(ctx); err != nil {
		t.Fatal(err)
	}

	// Outgoing accounting: payload bytes only, per link.
	mt := master.Traffic()
	if mt.LinkMsgs(0, 1) != 1 || mt.LinkMsgs(0, 2) != 1 {
		t.Fatalf("master per-link msgs: %v", mt.Links())
	}
	if mt.LinkBytes(0, 1) != mt.LinkBytes(0, 2) || mt.LinkBytes(0, 1) <= 0 {
		t.Fatalf("broadcast link bytes differ: %v", mt.Links())
	}
	w1 := workers[1].Traffic()
	if w1.LinkMsgs(1, 2) != 1 || w1.TotalMsgs() != 1 {
		t.Fatalf("worker 1 traffic: %v", w1.Links())
	}
	// The payload must be byte-identical to the simulation's encoding.
	enc, err := cluster.EncodePayload(payload{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w1.LinkBytes(1, 2) != int64(len(enc)) {
		t.Fatalf("worker 1 link bytes %d, want %d (pure payload)", w1.LinkBytes(1, 2), len(enc))
	}
}

func TestSelfSendLoopsLocally(t *testing.T) {
	master, _ := startCluster(t, 1, Config{})
	if err := master.Send(0, 5, payload{N: 9}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	msg, err := master.ReceiveCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 0 || msg.Kind != 5 {
		t.Fatalf("self message: %+v", msg)
	}
}

func TestReceiveDeadline(t *testing.T) {
	master, _ := startCluster(t, 1, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := master.ReceiveCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestFingerprintMismatchRejectsJoin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveErr := make(chan error, 1)
	go func() {
		_, err := ServeOn(ln, Config{Fingerprint: 1, JoinTimeout: 10 * time.Second})
		serveErr <- err
	}()
	n, err := Connect([]string{addr}, Config{Fingerprint: 2, JoinTimeout: 10 * time.Second})
	if err == nil {
		n.Close()
		t.Fatal("master accepted mismatched fingerprint")
	}
	if werr := <-serveErr; werr == nil {
		t.Fatal("worker accepted mismatched fingerprint")
	}
}

func TestMasterGoodbyeClosesWorkerCleanly(t *testing.T) {
	master, workers := startCluster(t, 1, Config{})
	master.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := workers[1].ReceiveCtx(ctx)
	if !errors.Is(err, cluster.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed after orderly master departure", err)
	}
}

// TestPeerDeathSurfacesAsReceiveEvent: an abrupt worker death (no
// goodbye) must not hang a blocked master; it returns as the dead peer's
// KindPeerDown event, and the transport stays open.
func TestPeerDeathSurfacesAsReceiveEvent(t *testing.T) {
	cfg := Config{HeartbeatEvery: 30 * time.Millisecond, PeerTimeout: 200 * time.Millisecond}
	master, workers := startCluster(t, 2, cfg)
	workers[2].Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	msg, err := master.ReceiveCtx(ctx)
	if err != nil || msg.Kind != cluster.KindPeerDown || msg.From != 2 {
		t.Fatalf("got %+v, %v; want KindPeerDown from 2", msg, err)
	}
	if err := master.Send(1, 5, payload{N: 1}); err != nil {
		t.Fatalf("send to survivor after the death: %v", err)
	}
}

func TestSilentPeerTimesOut(t *testing.T) {
	cfg := Config{HeartbeatEvery: 20 * time.Millisecond, PeerTimeout: 150 * time.Millisecond}
	_, workers := startCluster(t, 2, cfg)
	// A peer that says hello and then goes silent: the worker's heartbeat
	// monitor must declare it dead and fail the inbox.
	conn, err := net.Dial("tcp", workers[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &frame{Ctrl: ctrlHello, From: 2, Fingerprint: 0}); err != nil {
		t.Fatal(err)
	}
	// Silence. Note worker 1's master link stays healthy (heartbeats), so
	// the failure can only come from the silent peer link. But the master
	// link monitor and the silent peer share the inbox; wait for the error.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, rerr := workers[1].ReceiveCtx(ctx)
	if rerr == nil || errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want unresponsive-peer error", rerr)
	}
}

func TestSilentPeerNeedsWrongSize(t *testing.T) {
	// Guard for the test above: the hello must carry a valid id to be
	// registered; out-of-range ids are dropped without failing the node.
	cfg := Config{HeartbeatEvery: 20 * time.Millisecond, PeerTimeout: 120 * time.Millisecond}
	_, workers := startCluster(t, 1, cfg)
	conn, err := net.Dial("tcp", workers[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &frame{Ctrl: ctrlHello, From: 99, Fingerprint: 0}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	_, rerr := workers[1].ReceiveCtx(ctx)
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded (stray conn ignored)", rerr)
	}
}

// TestNoGoroutineLeakAfterClose is the teardown leak check: nodes built by
// every entry point — ConnectOn, ServeOn, Join, and Resume with a worker
// rejoining it — taken through a healed link flap and then closed, with
// Close or with Abort, leave no goroutine behind; nor does a ConnectOn
// that a refusal aborts while another admission hangs.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	for _, orderly := range []bool{true, false} {
		t.Run(fmt.Sprintf("orderly=%v", orderly), func(t *testing.T) {
			before := runtime.NumGoroutine()
			stop := func(n *Node) {
				if orderly {
					n.Close()
				} else {
					n.Abort()
				}
			}
			// A grace window far beyond the settle loop: a watcher or redial
			// that ignored Close would be counted.
			cfg := Config{Fingerprint: 7, LinkGrace: 30 * time.Second, JoinTimeout: 5 * time.Second}
			wln := listen(t)
			served := make(chan *Node, 1)
			go func() {
				w, err := ServeOn(wln, cfg)
				if err != nil {
					t.Error(err)
				}
				served <- w
			}()
			master, err := ConnectOn(listen(t), []string{wln.Addr().String()}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			worker := <-served
			joiner, err := Join(master.Addr(), "127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			master.DropLinks()
			if err := master.Send(1, 7, payload{N: 1}); err != nil {
				t.Fatal(err)
			}
			if msg := receiveKind(t, worker, 5*time.Second); msg.Kind != 7 {
				t.Fatalf("worker got %+v after the flap", msg)
			}

			addr := master.Addr()
			book, size := master.AddressBook()
			stop(master)
			resumed, err := Resume(addr, size, book, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := worker.RejoinMaster(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			for _, n := range []*Node{resumed, worker, joiner} {
				stop(n)
			}

			mute, mismatched := hung(t, "127.0.0.1:0"), listen(t)
			refused := make(chan error, 1)
			go func() {
				_, err := ServeOn(mismatched, Config{Fingerprint: 8, JoinTimeout: 5 * time.Second})
				refused <- err
			}()
			if n, err := ConnectOn(listen(t), []string{mute.Addr().String(), mismatched.Addr().String()}, cfg); err == nil {
				n.Close()
				t.Fatal("ConnectOn admitted a mismatched worker")
			}
			<-refused
			mute.Close()

			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines outlive the nodes (%d before):\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}
