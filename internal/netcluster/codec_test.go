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
		if _, err := nw.Node(1).ReceiveCtx(context.Background()); err != nil {
			t.Fatalf("sim receive failed: %v", err)
		}
		simBytes := nw.Traffic().LinkBytes(0, 1)

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

// The version-refusal suite: every handshake that carries frame.Version must
// refuse a peer offering anything but protocolVersion — by name, and
// without waiting out JoinTimeout. The test scripts the mismatched peer
// frame by frame; the matching-peer side of each handshake is what every
// other test in this package runs on.

// refusalCfg's JoinTimeout is far beyond prompt: a refusal that waits it
// out fails the test on elapsed time.
var refusalCfg = Config{Fingerprint: 7, JoinTimeout: 60 * time.Second}

const prompt = 5 * time.Second

// eachRefusedVersion runs fn for every version byte up to one past
// protocolVersion but its own: 0 from a peer that sets none, the numbers
// of the earlier protocol versions, and a build one format change ahead.
// (A peer of versions 1 and 2 really sends gob frames, which no longer
// parse at all: TestGobHelloRefusedByName.)
func eachRefusedVersion(t *testing.T, fn func(t *testing.T, offered uint8)) {
	for offered := uint8(0); offered <= protocolVersion+1; offered++ {
		if offered == protocolVersion {
			continue
		}
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
// writes back reply(f). The returned channel yields the frame the peer
// sends after the reply, or nil if it hangs up without one.
func answer(t *testing.T, ln net.Listener, ctrl uint8, reply func(f *frame) *frame) <-chan *frame {
	heard := make(chan *frame, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			heard <- nil
			return
		}
		defer conn.Close()
		f, err := readFrame(conn, 1<<20)
		if err != nil || f.Ctrl != ctrl {
			t.Errorf("scripted peer got %+v, %v; want ctrl %d", f, err, ctrl)
			heard <- nil
			return
		}
		writeFrame(conn, reply(f))
		conn.SetReadDeadline(time.Now().Add(prompt))
		next, _ := readFrame(conn, 1<<20)
		heard <- next
	}()
	return heard
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
	if welcome.Ctrl != ctrlWelcome || welcome.Version != protocolVersion {
		t.Fatalf("welcome = %+v, want version byte %d", welcome, protocolVersion)
	}
	if err := writeFrame(conn, &frame{Ctrl: ctrlWelcomeAck, From: welcome.NodeID, Fingerprint: 7, Version: offered}); err != nil {
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
			Peers: []string{"", ln.Addr().String()}, Fingerprint: 7, Version: offered})
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
			if f.Version != protocolVersion {
				t.Errorf("welcome version byte %d, want %d", f.Version, protocolVersion)
			}
			return &frame{Ctrl: ctrlWelcomeAck, From: f.NodeID, Fingerprint: f.Fingerprint, Version: offered}
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
		if err := writeFrame(conn, &frame{Ctrl: ctrlHello, From: 1, Fingerprint: 7, Version: offered}); err != nil {
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
// ConnectOn master drops a joiner that acks another version without
// growing the cluster.
func TestLateJoinVersionRefused(t *testing.T) {
	eachRefusedVersion(t, func(t *testing.T, offered uint8) {
		ln := listen(t)
		answer(t, ln, ctrlJoinReq, func(f *frame) *frame {
			return &frame{Ctrl: ctrlWelcome, NodeID: 2, Nodes: 3, Peers: []string{"", "", f.Addr}, Fingerprint: 7, Version: offered}
		})
		start := time.Now()
		_, err := Join(ln.Addr().String(), "127.0.0.1:0", refusalCfg)
		wantRefusal(t, err, offered, start)

		master, _ := startClusterOn(t, listen(t), 1, refusalCfg)
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
		welcome := frame{Ctrl: ctrlWelcome, NodeID: 1, Nodes: 2, Peers: book, Fingerprint: 7, Version: protocolVersion}
		if _, ack := open(t, workerLn.Addr().String(), &welcome); ack.Err != "" || ack.Version != protocolVersion {
			t.Fatalf("matching welcome not accepted: %+v", ack)
		}
		worker := <-joined
		if worker == nil {
			t.FailNow()
		}
		t.Cleanup(func() { worker.Abort() })
		answer(t, masterLn, ctrlRejoinReq, func(*frame) *frame {
			restarted := welcome
			restarted.Version = offered
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

// The fingerprint variant of the refusal suite: a peer loaded with another
// dataset (or settings) is refused at every handshake — by name, and
// without waiting out a timeout. The initial join and the master's side of
// the late join are pinned by TestFingerprintMismatchRejectsJoin and
// TestLateJoinFingerprintMismatchRefused.

// eachRefusedFingerprint runs fn for the fingerprints a real mismatched
// peer sends: 0 from one that sets none, and a neighbour of refusalCfg's.
func eachRefusedFingerprint(t *testing.T, fn func(t *testing.T, offered uint64)) {
	for _, offered := range []uint64{0, refusalCfg.Fingerprint + 1} {
		offered := offered
		t.Run(fmt.Sprintf("fp%x", offered), func(t *testing.T) { fn(t, offered) })
	}
}

// wantFingerprintRefusal requires a refusal naming the fingerprint,
// promptly.
func wantFingerprintRefusal(t *testing.T, reason string, start time.Time) {
	t.Helper()
	if !strings.Contains(reason, "fingerprint") {
		t.Fatalf("refusal %q, want one naming the fingerprint", reason)
	}
	if d := time.Since(start); d > prompt {
		t.Fatalf("refusal took %v — waited for a timeout instead of refusing", d)
	}
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// orphanable is a worker joined, by a scripted master's welcome, to a
// cluster whose address book names masterAddr as the master's stable
// address — what RejoinMaster redials.
func orphanable(t *testing.T, cfg Config, masterAddr string) *Node {
	t.Helper()
	ln := listen(t)
	joined := make(chan *Node, 1)
	go func() {
		w, err := ServeOn(ln, cfg)
		if err != nil {
			t.Error(err)
		}
		joined <- w
	}()
	welcome := &frame{Ctrl: ctrlWelcome, NodeID: 1, Nodes: 2, Peers: []string{masterAddr, ln.Addr().String()},
		Fingerprint: cfg.Fingerprint, Version: protocolVersion}
	if _, ack := open(t, ln.Addr().String(), welcome); ack.Err != "" {
		t.Fatalf("matching welcome not accepted: %+v", ack)
	}
	w := <-joined
	if w == nil {
		t.FailNow()
	}
	t.Cleanup(func() { w.Abort() })
	return w
}

// TestRejoinFingerprintRefused pins both ends of the master-restart rejoin:
// an orphaned worker refuses a restarted master loaded with another
// dataset — permanently, long before its rejoin timeout, and saying so to
// the master — and a Resume'd master refuses a rejoin request carrying
// another fingerprint without re-admitting the worker.
func TestRejoinFingerprintRefused(t *testing.T) {
	eachRefusedFingerprint(t, func(t *testing.T, offered uint64) {
		masterLn := listen(t)
		worker := orphanable(t, refusalCfg, masterLn.Addr().String())
		heard := answer(t, masterLn, ctrlRejoinReq, func(f *frame) *frame {
			return &frame{Ctrl: ctrlWelcome, NodeID: f.From, Nodes: 2, Peers: []string{masterLn.Addr().String(), f.Addr},
				Fingerprint: offered, Version: protocolVersion}
		})
		start := time.Now()
		_, err := worker.RejoinMaster(60 * time.Second)
		wantFingerprintRefusal(t, errText(err), start)
		if ack := <-heard; ack == nil || ack.Ctrl != ctrlWelcomeAck || !strings.Contains(ack.Err, "fingerprint") {
			t.Fatalf("scripted master heard %+v after its welcome, want a refusal naming the fingerprint", ack)
		}

		master, err := Resume("127.0.0.1:0", 2, []string{"", "127.0.0.1:1"}, refusalCfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { master.Abort() })
		start = time.Now()
		_, ack := open(t, master.Addr(), &frame{Ctrl: ctrlRejoinReq, From: 1, Addr: "127.0.0.1:1", Fingerprint: offered})
		if ack.Ctrl != ctrlWelcomeAck {
			t.Fatalf("resumed master answered %+v, want a refusal", ack)
		}
		wantFingerprintRefusal(t, ack.Err, start)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if msg, err := master.ReceiveCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("resumed master re-admitted a worker with fingerprint %x: %+v, %v", offered, msg, err)
		}
	})
}

// TestLinkResumeFingerprintRefused pins the acceptor side of a link
// resume: a ctrlLinkResume naming a live session but another fingerprint
// is refused, and the session it named carries on untouched.
func TestLinkResumeFingerprintRefused(t *testing.T) {
	eachRefusedFingerprint(t, func(t *testing.T, offered uint64) {
		cfg := refusalCfg
		cfg.LinkGrace = 5 * time.Second
		master, workers := startCluster(t, 1, cfg)
		master.mu.Lock()
		sid := master.links[1].sess.sid
		master.mu.Unlock()
		start := time.Now()
		_, ack := open(t, workers[1].Addr(), &frame{Ctrl: ctrlLinkResume, From: 0, Session: sid, Fingerprint: offered})
		if ack.Ctrl != ctrlLinkResumeAck {
			t.Fatalf("worker answered %+v, want a resume refusal", ack)
		}
		wantFingerprintRefusal(t, ack.Err, start)
		if err := master.Send(1, 7, payload{N: 1}); err != nil {
			t.Fatal(err)
		}
		if msg := receiveKind(t, workers[1], prompt); msg.Kind != 7 {
			t.Fatalf("worker got %+v over the session a refused resume named", msg)
		}
		if flaps, _ := workers[1].LinkStats(); flaps != 0 {
			t.Fatalf("a refused resume suspended the live session: %d flaps", flaps)
		}
	})
}

// TestHelloFingerprintRefused pins the ring: a peer dialing a worker with a
// ctrlHello carrying another fingerprint fails that worker's inbox.
func TestHelloFingerprintRefused(t *testing.T) {
	eachRefusedFingerprint(t, func(t *testing.T, offered uint64) {
		_, workers := startCluster(t, 2, refusalCfg)
		start := time.Now()
		conn, err := net.Dial("tcp", workers[2].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, &frame{Ctrl: ctrlHello, From: 1, Fingerprint: offered, Version: protocolVersion}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*prompt)
		defer cancel()
		_, err = workers[2].ReceiveCtx(ctx)
		wantFingerprintRefusal(t, errText(err), start)
	})
}

// TestLateJoinFingerprintRefusedByJoiner pins the worker side of a late
// join: Join refuses a master welcoming it with another fingerprint,
// promptly, and tells the master why.
func TestLateJoinFingerprintRefusedByJoiner(t *testing.T) {
	eachRefusedFingerprint(t, func(t *testing.T, offered uint64) {
		ln := listen(t)
		heard := answer(t, ln, ctrlJoinReq, func(f *frame) *frame {
			return &frame{Ctrl: ctrlWelcome, NodeID: 2, Nodes: 3, Peers: []string{"", "", f.Addr}, Fingerprint: offered, Version: protocolVersion}
		})
		start := time.Now()
		_, err := Join(ln.Addr().String(), "127.0.0.1:0", refusalCfg)
		wantFingerprintRefusal(t, errText(err), start)
		if ack := <-heard; ack == nil || ack.Ctrl != ctrlWelcomeAck || !strings.Contains(ack.Err, "fingerprint") {
			t.Fatalf("scripted master heard %+v after its welcome, want a refusal naming the fingerprint", ack)
		}
	})
}

// hung is a listener on addr that accepts connections and never writes.
func hung(t *testing.T, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	return ln
}

// TestRejoinMasterBoundedByTimeout pins the orphan regime's window: a
// master address that accepts and never answers costs RejoinMaster its
// timeout, not a JoinTimeout-long handshake read per try.
func TestRejoinMasterBoundedByTimeout(t *testing.T) {
	cfg := Config{Fingerprint: 7, JoinTimeout: 3 * time.Second}
	master := hung(t, "127.0.0.1:0")
	worker := orphanable(t, cfg, master.Addr().String())
	start := time.Now()
	if _, err := worker.RejoinMaster(300 * time.Millisecond); err == nil {
		t.Fatal("rejoined a master that never answered")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("RejoinMaster(300ms) took %v against a hung master: a try outlived the window", d)
	}
}
