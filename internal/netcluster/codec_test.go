package netcluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestSimTCPByteParity pins the cost-model honesty property: the same
// logical message must account the same payload bytes on the simulated
// transport and on TCP — otherwise sim-clock predictions and measured
// runs drift apart.
func TestSimTCPByteParity(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		pl := payload{N: 123456, S: "parity across transports"}

		nw := cluster.NewNetwork(2, cluster.CostModel{})
		if err := nw.Node(0).Send(1, 7, pl); err != nil {
			t.Fatal(err)
		}
		if _, ok := nw.Node(1).Receive(); !ok {
			t.Fatal("sim receive failed")
		}
		simBytes := nw.LinkBytes(0, 1)

		master, workers := startCluster(t, 1, Config{})
		if err := master.Send(1, 7, pl); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := workers[1].ReceiveCtx(ctx); err != nil {
			t.Fatal(err)
		}
		tcpBytes := master.Traffic().LinkBytes(0, 1)

		if simBytes != tcpBytes || simBytes <= 0 {
			t.Fatalf("sim accounts %d bytes, TCP %d — transports disagree", simBytes, tcpBytes)
		}
	})
}

// The version-refusal suite: every handshake that carries frame.Codec must
// refuse a peer offering anything but protocolVersion — by name, and
// without waiting out JoinTimeout. The test scripts the mismatched peer
// frame by frame; the matching-peer side of each handshake is what every
// other test in this package runs on.

// refusalCfg's JoinTimeout is far beyond prompt: a refusal that waits it
// out fails the test on elapsed time.
var refusalCfg = Config{Fingerprint: 7, JoinTimeout: 60 * time.Second}

const prompt = 5 * time.Second

// eachRefusedVersion runs fn for the bytes a real mismatched peer sends: 0
// from a build that predates the byte (gob omits the zero field), and the
// neighbours of protocolVersion — a build one payload-format change
// behind, and one ahead.
func eachRefusedVersion(t *testing.T, fn func(t *testing.T, offered uint8)) {
	for _, offered := range []uint8{0, protocolVersion - 1, protocolVersion + 1} {
		offered := offered
		t.Run(fmt.Sprintf("byte%d", offered), func(t *testing.T) { fn(t, offered) })
	}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// answer scripts the accepting side of one handshake: it accepts one
// connection on ln, reads the opening frame (which must be ctrl) and
// writes back reply(f).
func answer(t *testing.T, ln net.Listener, ctrl uint8, reply func(f *frame) *frame) {
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		f, err := readFrame(conn, 1<<20)
		if err != nil || f.Ctrl != ctrl {
			t.Errorf("scripted peer got %+v, %v; want ctrl %d", f, err, ctrl)
			return
		}
		writeFrame(conn, reply(f))
	}()
}

// open scripts the dialing side: it sends req to addr and returns the
// connection with the peer's answer.
func open(t *testing.T, addr string, req *frame) (net.Conn, *frame) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(prompt))
	if err := writeFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(conn, 1<<20)
	if err != nil {
		t.Fatalf("no answer to ctrl %d: %v", req.Ctrl, err)
	}
	return conn, f
}

// wantRefusal requires err to name the offered byte, promptly.
func wantRefusal(t *testing.T, err error, offered uint8, start time.Time) {
	t.Helper()
	want := fmt.Sprintf("protocol version byte %d", offered)
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "mixed-version") {
		t.Fatalf("error = %v, want mixed-version refusal naming %q", err, want)
	}
	if d := time.Since(start); d > prompt {
		t.Fatalf("refusal took %v — waited for a timeout instead of refusing", d)
	}
}

// wantAckDropped is the master's side of a late join or rejoin: it must
// have welcomed the scripted worker with protocolVersion, and on an ack
// echoing another byte close the connection (not merely go quiet until
// the dial deadline).
func wantAckDropped(t *testing.T, conn net.Conn, welcome *frame, offered uint8) {
	t.Helper()
	if welcome.Ctrl != ctrlWelcome || welcome.Codec != protocolVersion {
		t.Fatalf("welcome = %+v, want version byte %d", welcome, protocolVersion)
	}
	if err := writeFrame(conn, &frame{Ctrl: ctrlWelcomeAck, From: welcome.NodeID, Fingerprint: 7, Codec: offered}); err != nil {
		t.Fatal(err)
	}
	_, err := readFrame(conn, 1<<20)
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("read after a mismatched ack: %v, want the connection closed", err)
	}
}

// TestWorkerRefusesLegacyMaster pins initial-join refusal from the worker
// side: a master whose welcome offers another version must be rejected
// with a loud error on both ends, not decoded on faith.
func TestWorkerRefusesLegacyMaster(t *testing.T) {
	eachRefusedVersion(t, func(t *testing.T, offered uint8) {
		ln := listen(t)
		serveErr := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := ServeOn(ln, refusalCfg)
			serveErr <- err
		}()
		_, ack := open(t, ln.Addr().String(), &frame{Ctrl: ctrlWelcome, NodeID: 1, Nodes: 2,
			Peers: []string{"", ln.Addr().String()}, Fingerprint: 7, Codec: offered})
		if want := fmt.Sprintf("version byte %d", offered); ack.Ctrl != ctrlWelcomeAck || !strings.Contains(ack.Err, want) {
			t.Fatalf("want rejection ack naming %q, got ctrl %d err %q", want, ack.Ctrl, ack.Err)
		}
		wantRefusal(t, <-serveErr, offered, start)
	})
}

// TestMasterRefusesUnconfirmedCodec pins the master side of the initial
// join: a worker whose ack does not echo the offered version byte aborts
// the whole join.
func TestMasterRefusesUnconfirmedCodec(t *testing.T) {
	eachRefusedVersion(t, func(t *testing.T, offered uint8) {
		ln := listen(t)
		answer(t, ln, ctrlWelcome, func(f *frame) *frame {
			if f.Codec != protocolVersion {
				t.Errorf("welcome version byte %d, want %d", f.Codec, protocolVersion)
			}
			return &frame{Ctrl: ctrlWelcomeAck, From: f.NodeID, Fingerprint: f.Fingerprint, Codec: offered}
		})
		start := time.Now()
		_, err := Connect([]string{ln.Addr().String()}, refusalCfg)
		wantRefusal(t, err, offered, start)
	})
}

// TestHelloVersionRefused pins the ring: a peer dialing a worker with a
// ctrlHello asserting another version fails that worker's inbox.
func TestHelloVersionRefused(t *testing.T) {
	eachRefusedVersion(t, func(t *testing.T, offered uint8) {
		_, workers := startCluster(t, 2, refusalCfg)
		start := time.Now()
		conn, err := net.Dial("tcp", workers[2].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, &frame{Ctrl: ctrlHello, From: 1, Fingerprint: 7, Codec: offered}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*prompt)
		defer cancel()
		_, err = workers[2].ReceiveCtx(ctx)
		wantRefusal(t, err, offered, start)
	})
}

// TestLateJoinVersionRefused pins both ends of the late join: Join
// refuses a master welcoming it with another version, and a
// ListenForJoins master drops a joiner that acks another version without
// growing the cluster.
func TestLateJoinVersionRefused(t *testing.T) {
	eachRefusedVersion(t, func(t *testing.T, offered uint8) {
		ln := listen(t)
		answer(t, ln, ctrlJoinReq, func(f *frame) *frame {
			return &frame{Ctrl: ctrlWelcome, NodeID: 2, Nodes: 3, Peers: []string{"", "", f.Addr}, Fingerprint: 7, Codec: offered}
		})
		start := time.Now()
		_, err := Join(ln.Addr().String(), "127.0.0.1:0", refusalCfg)
		wantRefusal(t, err, offered, start)

		master, _ := startCluster(t, 1, refusalCfg)
		if err := master.ListenForJoins("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		conn, welcome := open(t, master.Addr(), &frame{Ctrl: ctrlJoinReq, Addr: "127.0.0.1:1", Fingerprint: 7})
		wantAckDropped(t, conn, welcome, offered)
		if master.Size() != 2 {
			t.Fatalf("master admitted a version-%d joiner: size %d", offered, master.Size())
		}
	})
}

// TestResumeVersionRefused pins both ends of the master-restart rejoin: an
// orphaned worker refuses a restarted master offering another version,
// permanently rather than retrying until OrphanTimeout, and a Resume'd
// master drops a worker that acks another version without re-admitting it.
func TestResumeVersionRefused(t *testing.T) {
	eachRefusedVersion(t, func(t *testing.T, offered uint8) {
		// A worker joined to a scripted master that listens, so it has an
		// address to redial.
		masterLn, workerLn := listen(t), listen(t)
		joined := make(chan *Node, 1)
		go func() {
			w, err := ServeOn(workerLn, refusalCfg)
			if err != nil {
				t.Error(err)
			}
			joined <- w
		}()
		book := []string{masterLn.Addr().String(), workerLn.Addr().String()}
		welcome := frame{Ctrl: ctrlWelcome, NodeID: 1, Nodes: 2, Peers: book, Fingerprint: 7, Codec: protocolVersion}
		if _, ack := open(t, workerLn.Addr().String(), &welcome); ack.Err != "" || ack.Codec != protocolVersion {
			t.Fatalf("matching welcome not accepted: %+v", ack)
		}
		worker := <-joined
		if worker == nil {
			t.FailNow()
		}
		t.Cleanup(func() { worker.Abort() })
		answer(t, masterLn, ctrlRejoinReq, func(*frame) *frame {
			restarted := welcome
			restarted.Codec = offered
			return &restarted
		})
		start := time.Now()
		_, err := worker.RejoinMaster(60 * time.Second)
		wantRefusal(t, err, offered, start)

		master, err := Resume("127.0.0.1:0", 2, []string{"", "127.0.0.1:1"}, refusalCfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { master.Abort() })
		conn, rewelcome := open(t, master.Addr(), &frame{Ctrl: ctrlRejoinReq, From: 1, Addr: "127.0.0.1:1", Fingerprint: 7})
		wantAckDropped(t, conn, rewelcome, offered)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if msg, err := master.ReceiveCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("resumed master re-admitted a version-%d worker: %+v, %v", offered, msg, err)
		}
	})
}
