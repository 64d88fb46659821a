package netcluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

const goldenSession = 0x0123456789abcdef

var goldenBook = []string{"127.0.0.1:7880", "127.0.0.1:7881", "127.0.0.1:7882"}

// goldenFrameSet is one frame of every ctrl kind, in the shapes the
// transport sends them; data frames come with and without the session
// header, the welcome ack as an acceptance and as a refusal.
var goldenFrameSet = []struct {
	name string
	f    frame
}{
	{"data", frame{Ctrl: ctrlData, From: 1, To: 2, Kind: 9, SendTime: 123456789, Payload: []byte{0x00, 0x05, 0x2a}}},
	{"data-session", frame{Ctrl: ctrlData, From: 2, To: 1, Kind: 3, SendTime: 987654321, Payload: []byte{0x00, 0x07},
		Session: goldenSession, Seq: 42, Ack: 41}},
	{"heartbeat", frame{Ctrl: ctrlHeartbeat, From: 2}},
	{"heartbeat-ack", frame{Ctrl: ctrlHeartbeat, From: 2, Ack: 17}},
	{"goodbye", frame{Ctrl: ctrlGoodbye, From: 1}},
	{"hello", frame{Ctrl: ctrlHello, From: 2, Fingerprint: 0xfeedface, Session: goldenSession, Version: protocolVersion}},
	{"welcome", frame{Ctrl: ctrlWelcome, NodeID: 1, Nodes: 3, Peers: goldenBook, Fingerprint: 0xfeedface,
		Model:   cluster.CostModel{Latency: 5 * time.Millisecond, BandwidthBps: 1.25e6, NsPerInference: 1000},
		Session: goldenSession, Version: protocolVersion}},
	{"welcome-ack", frame{Ctrl: ctrlWelcomeAck, From: 1, Fingerprint: 0xfeedface, Version: protocolVersion}},
	{"welcome-ack-err", frame{Ctrl: ctrlWelcomeAck, Err: "fingerprint 7 does not match this node's 8"}},
	{"join", frame{Ctrl: ctrlJoinReq, Addr: "127.0.0.1:7883", Fingerprint: 0xfeedface, Session: goldenSession}},
	{"rejoin", frame{Ctrl: ctrlRejoinReq, From: 2, Addr: "127.0.0.1:7882", Fingerprint: 0xfeedface, Session: goldenSession}},
	{"peer-update", frame{Ctrl: ctrlPeerUpdate, Nodes: 4, Peers: append(goldenBook[:3:3], "127.0.0.1:7883"),
		Session: goldenSession, Seq: 43, Ack: 41}},
	{"link-resume", frame{Ctrl: ctrlLinkResume, From: 1, Session: goldenSession, Ack: 41, Fingerprint: 0xfeedface}},
	{"link-resume-ack", frame{Ctrl: ctrlLinkResumeAck, From: 2, Session: goldenSession, Ack: 42, Fingerprint: 0xfeedface}},
}

// TestFramesGolden pins the frame envelope byte for byte: one "name hex"
// line per frame of goldenFrameSet in testdata/frames.golden, each of
// which must decode back to its frame. Regenerate with UPDATE_GOLDEN=1
// after an intentional format change — which is also a protocolVersion
// bump.
func TestFramesGolden(t *testing.T) {
	const golden = "testdata/frames.golden"
	var b strings.Builder
	for _, g := range goldenFrameSet {
		fmt.Fprintf(&b, "%s %x\n", g.name, appendFrame(nil, &g.f))
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("frame bytes drifted from %s.\nGot:\n%sWant:\n%sIf intentional, regenerate with UPDATE_GOLDEN=1.", golden, b.String(), want)
	}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for i := 0; sc.Scan(); i++ {
		name, hexed, _ := strings.Cut(sc.Text(), " ")
		raw, err := hex.DecodeString(hexed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := readFrame(bytes.NewReader(raw), len(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g := goldenFrameSet[i]; g.name != name || !reflect.DeepEqual(*got, g.f) {
			t.Fatalf("%s decodes to %+v, want %+v", name, *got, g.f)
		}
	}
	// A frame with nothing optional set is the fixed header alone: the
	// heartbeat a node without a grace window sends every HeartbeatEvery.
	if n := len(appendFrame(nil, &goldenFrameSet[2].f)); n > 10 {
		t.Fatalf("heartbeat is %d bytes on the wire, want at most 10", n)
	}
}

// FuzzFrame feeds arbitrary frame bodies to the decoder: it must never
// panic, never allocate more than a small multiple of the body, and any
// body it accepts must be exactly the bytes appendFrame writes for the
// decoded frame.
func FuzzFrame(f *testing.F) {
	for _, g := range goldenFrameSet {
		f.Add(appendFrame(nil, &g.f)[lenPrefixSize:])
	}
	f.Add(gobFrame(f, gobFrameV2{Ctrl: ctrlHello, From: 1, Fingerprint: 7, Codec: 2})[lenPrefixSize:])
	f.Add([]byte{ctrlData, flagSeq, 0x81, 0x00, 0, 0, 0, 0}) // Seq 1 as a non-minimal varint
	f.Add([]byte{ctrlHeartbeat, flagHandshake, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, body []byte) {
		// Averaged over reps decodes, so what the fuzzing engine allocates
		// meanwhile cannot pass for the decoder's.
		const reps = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			decodeFrame(body)
		}
		runtime.ReadMemStats(&after)
		if grew := (after.TotalAlloc - before.TotalAlloc) / reps; grew > uint64(512+24*len(body)) {
			t.Fatalf("decoding a %d-byte body allocated %d bytes", len(body), grew)
		}
		fr, err := decodeFrame(body)
		if err != nil {
			if !errors.As(err, new(envelopeError)) {
				t.Fatalf("decode error %v is not an envelope error", err)
			}
			return
		}
		if again := appendFrame(nil, fr)[lenPrefixSize:]; !bytes.Equal(again, body) {
			t.Fatalf("body %x decodes to %+v, which re-encodes to %x", body, fr, again)
		}
	})
}

// gobFrameV2 is the frame struct protocol versions 1 and 2 gob-encoded,
// field for field; Codec was their version byte.
type gobFrameV2 struct {
	Ctrl        uint8
	From        int32
	To          int32
	Kind        int32
	SendTime    int64
	Payload     []byte
	Session     uint64
	Seq         uint64
	Ack         uint64
	NodeID      int32
	Nodes       int32
	Peers       []string
	Addr        string
	Fingerprint uint64
	Model       cluster.CostModel
	Err         string
	Codec       uint8
}

// gobFrame is v as a version-2 peer wrote it: a 4-byte big-endian length,
// then a fresh gob stream.
func gobFrame(tb testing.TB, v gobFrameV2) []byte {
	var buf bytes.Buffer
	buf.Write(make([]byte, lenPrefixSize))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-lenPrefixSize))
	return b
}

// wantEnvelopeRefusal requires text to name this build's envelope version.
func wantEnvelopeRefusal(t *testing.T, text string) {
	t.Helper()
	if want := fmt.Sprintf("version-%d envelope", protocolVersion); !strings.Contains(text, want) || !strings.Contains(text, "mixed-version") {
		t.Fatalf("got %q, want a mixed-version refusal naming %q", text, want)
	}
}

// TestGobHelloRefusedByName pins what a peer of protocol version 2 meets:
// its gob frames are refused, naming the envelope version, at every
// handshake — the ring's hello, the welcome a waiting worker reads, the
// answer a joiner reads — and the refusing node carries on.
func TestGobHelloRefusedByName(t *testing.T) {
	hello := gobFrame(t, gobFrameV2{Ctrl: ctrlHello, From: 1, Fingerprint: 7, Session: 5, Codec: 2})
	_, err := readFrame(bytes.NewReader(hello), len(hello))
	wantEnvelopeRefusal(t, errText(err))

	t.Run("ring", func(t *testing.T) {
		master, workers := startCluster(t, 2, refusalCfg)
		conn, err := net.Dial("tcp", workers[2].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(prompt))
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		ack, err := readFrame(conn, 1<<20)
		if err != nil || ack.Ctrl != ctrlWelcomeAck {
			t.Fatalf("answer to a gob hello: %+v, %v; want a refusal", ack, err)
		}
		wantEnvelopeRefusal(t, ack.Err)
		if _, err := readFrame(conn, 1<<20); err == nil {
			t.Fatal("connection left open after the refusal")
		}
		if err := master.Send(2, 7, payload{N: 1}); err != nil {
			t.Fatal(err)
		}
		if msg := receiveKind(t, workers[2], prompt); msg.Kind != 7 {
			t.Fatalf("worker got %+v after refusing a gob hello", msg)
		}
	})

	t.Run("waiting worker", func(t *testing.T) {
		ln := listen(t)
		joined := make(chan error, 1)
		go func() {
			w, err := ServeOn(ln, refusalCfg)
			if err == nil {
				w.Abort()
			}
			joined <- err
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(prompt))
		old := gobFrame(t, gobFrameV2{Ctrl: ctrlWelcome, NodeID: 1, Nodes: 2, Peers: []string{"", ln.Addr().String()}, Fingerprint: 7, Codec: 2})
		if _, err := conn.Write(old); err != nil {
			t.Fatal(err)
		}
		ack, err := readFrame(conn, 1<<20)
		if err != nil || ack.Ctrl != ctrlWelcomeAck {
			t.Fatalf("answer to a gob welcome: %+v, %v; want a refusal", ack, err)
		}
		wantEnvelopeRefusal(t, ack.Err)
		// The worker is still waiting for its master.
		if _, ack := open(t, ln.Addr().String(), &frame{Ctrl: ctrlWelcome, NodeID: 1, Nodes: 2,
			Peers: []string{"", ln.Addr().String()}, Fingerprint: 7, Version: protocolVersion}); ack.Err != "" {
			t.Fatalf("welcome after the refused one: %+v", ack)
		}
		if err := <-joined; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("joiner", func(t *testing.T) {
		ln := listen(t)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := readFrame(conn, 1<<20); err != nil {
				return
			}
			conn.Write(gobFrame(t, gobFrameV2{Ctrl: ctrlWelcome, NodeID: 2, Nodes: 3, Fingerprint: 7, Codec: 2}))
			io.Copy(io.Discard, conn)
		}()
		start := time.Now()
		_, err := Join(ln.Addr().String(), "127.0.0.1:0", refusalCfg)
		wantEnvelopeRefusal(t, errText(err))
		if d := time.Since(start); d > prompt {
			t.Fatalf("refusal took %v — retried instead of refusing", d)
		}
	})
}

// TestHandshakeReadsBounded pins the four reads that precede any
// fingerprint check — a waiting worker's, an acceptor's, the master's read
// of a welcome ack, a joiner's read of the master's answer: a 4-byte
// length prefix claiming a quarter gigabyte must be refused without
// allocating it, and the node must go on admitting peers.
func TestHandshakeReadsBounded(t *testing.T) {
	hostile := []byte{0x0f, 0xff, 0xff, 0xff}
	const ceiling = 1 << 20
	measure := func(t *testing.T, fn func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > ceiling {
			t.Fatalf("a hostile length prefix cost %d bytes of allocation, want < %d", grew, ceiling)
		}
	}
	// sendPrefix dials addr, sends the prefix and requires the node to
	// hang up.
	sendPrefix := func(t *testing.T, addr string) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(prompt))
		if _, err := conn.Write(hostile); err != nil {
			t.Fatal(err)
		}
		var ne net.Error
		if _, err := conn.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("read after the hostile prefix: %v, want the connection closed", err)
		}
	}
	// hostileAnswer accepts one conn on ln, reads the opening frame and
	// answers with the prefix.
	hostileAnswer := func(ln net.Listener) {
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				if _, err := readFrame(conn, 1<<20); err == nil {
					conn.Write(hostile)
				}
				conn.Close()
			}
		}()
	}
	quick := Config{Fingerprint: 7, JoinTimeout: 300 * time.Millisecond}

	t.Run("waiting worker", func(t *testing.T) {
		ln := listen(t)
		joined := make(chan *Node, 1)
		go func() {
			w, _ := ServeOn(ln, refusalCfg)
			joined <- w
		}()
		measure(t, func() { sendPrefix(t, ln.Addr().String()) })
		if _, ack := open(t, ln.Addr().String(), &frame{Ctrl: ctrlWelcome, NodeID: 1, Nodes: 2,
			Peers: []string{"", ln.Addr().String()}, Fingerprint: 7, Version: protocolVersion}); ack.Err != "" {
			t.Fatalf("welcome after the hostile prefix: %+v", ack)
		}
		if w := <-joined; w == nil {
			t.Fatal("worker did not join after the hostile prefix")
		} else {
			w.Abort()
		}
	})
	t.Run("acceptor", func(t *testing.T) {
		master, _ := startClusterOn(t, listen(t), 1, refusalCfg)
		measure(t, func() { sendPrefix(t, master.Addr()) })
		joinLate(t, master, refusalCfg)
		if msg := receiveKind(t, master, prompt); msg.Kind != cluster.KindPeerUp {
			t.Fatalf("master got %+v, want the joiner's KindPeerUp", msg)
		}
	})
	t.Run("welcome ack", func(t *testing.T) {
		ln := listen(t)
		hostileAnswer(ln)
		measure(t, func() {
			if _, err := Connect([]string{ln.Addr().String()}, quick); err == nil {
				t.Fatal("Connect admitted a worker that answered with a hostile prefix")
			}
		})
	})
	t.Run("joiner", func(t *testing.T) {
		ln := listen(t)
		hostileAnswer(ln)
		measure(t, func() {
			if _, err := Join(ln.Addr().String(), "127.0.0.1:0", quick); err == nil {
				t.Fatal("Join accepted a master that answered with a hostile prefix")
			}
		})
	})
}
