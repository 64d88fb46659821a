package netcluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestConfigValidation pins the config-time rejection of knob combinations
// that cannot work, so a bad deployment fails at startup with a message
// naming the knobs instead of dying on a false-positive peer timeout later.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty = must validate
	}{
		{
			name:    "heartbeat must fit inside peer timeout",
			cfg:     Config{HeartbeatEvery: time.Second, PeerTimeout: 500 * time.Millisecond},
			wantErr: "HeartbeatEvery",
		},
		{
			name:    "heartbeat equal to peer timeout rejected",
			cfg:     Config{HeartbeatEvery: time.Second, PeerTimeout: time.Second},
			wantErr: "HeartbeatEvery",
		},
		{
			name:    "negative grace window rejected",
			cfg:     Config{LinkGrace: -time.Second},
			wantErr: "LinkGrace",
		},
		{
			name: "defaults are self-consistent",
			cfg:  Config{},
		},
		{
			name: "grace window with defaults accepted",
			cfg:  Config{LinkGrace: 2 * time.Second},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.withDefaults().validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error naming %q", err, tc.wantErr)
			}
		})
	}
	// The entry points run the same validation before touching the network.
	if _, err := Connect([]string{"127.0.0.1:1"}, Config{HeartbeatEvery: time.Second, PeerTimeout: time.Second}); err == nil || !strings.Contains(err.Error(), "HeartbeatEvery") {
		t.Fatalf("Connect accepted an invalid config: %v", err)
	}
}

// TestFrameSessionFieldsRoundTrip pins the wire format of the link-session
// header: Session, Seq and Ack must survive writeFrame/readFrame unchanged
// alongside every pre-existing field, or a resumed link replays the wrong
// gap.
func TestFrameSessionFieldsRoundTrip(t *testing.T) {
	in := &frame{
		Ctrl:     ctrlData,
		From:     2,
		To:       1,
		Kind:     9,
		SendTime: 12345,
		Payload:  []byte("rules"),
		Session:  0xA1B2C3D4E5F60718,
		Seq:      42,
		Ack:      41,
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, in); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	out, err := readFrame(&buf, 1<<20)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n got: %#v\nwant: %#v", out, in)
	}

	// The resume handshake frames carry the session header too.
	hs := &frame{Ctrl: ctrlLinkResume, From: 1, Session: 7, Ack: 3, Fingerprint: 99}
	buf.Reset()
	if err := writeFrame(&buf, hs); err != nil {
		t.Fatalf("writeFrame handshake: %v", err)
	}
	if out, err = readFrame(&buf, 1<<20); err != nil || !reflect.DeepEqual(out, hs) {
		t.Fatalf("handshake round trip: %#v (err %v), want %#v", out, err, hs)
	}
}

// TestReceiveCtxDeadlineDuringGrace pins the contract core relies on: a
// caller deadline on ReceiveCtx keeps firing while a link sits inside its
// reconnect grace window. The grace window hides the flap from the
// protocol, it must not disable the protocol's own timeouts.
func TestReceiveCtxDeadlineDuringGrace(t *testing.T) {
	cases := []struct {
		name string
		blip bool
	}{
		{name: "no fault", blip: false},
		{name: "mid-grace-window", blip: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Fingerprint: 7, LinkGrace: 5 * time.Second}
			master, workers := startCluster(t, 1, cfg)
			if tc.blip {
				master.DropLinks()
			}
			for _, node := range []*Node{master, workers[1]} {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				start := time.Now()
				_, err := node.ReceiveCtx(ctx)
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("node %d: ReceiveCtx = %v, want context.DeadlineExceeded", node.ID(), err)
				}
				if waited := time.Since(start); waited > 2*time.Second {
					t.Fatalf("node %d: deadline took %v to fire", node.ID(), waited)
				}
			}
		})
	}
}

// TestLinkFlapReplaysExactlyOnce is the tentpole test of the session
// layer: sever every conn mid-stream with frames still to deliver, and the
// reconnect-plus-replay handshake must hand the protocol every frame
// exactly once, in order, with no membership event ever surfacing.
func TestLinkFlapReplaysExactlyOnce(t *testing.T) {
	// Conns made after the blip write only once the gap's frames are
	// sent: otherwise a reconnect that beats the first send leaves
	// nothing to replay.
	var gated atomic.Bool
	gate := make(chan struct{})
	cfg := Config{Fingerprint: 7, LinkGrace: 10 * time.Second, ShapeConn: func(c net.Conn) net.Conn {
		if gated.Load() {
			return gatedConn{c, gate}
		}
		return c
	}}
	master, workers := startCluster(t, 1, cfg)
	master.NotifyFailures(true)
	workers[1].NotifyFailures(true)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recvN := func(node *Node, want int) []int {
		t.Helper()
		var got []int
		for len(got) < want {
			msg, err := node.ReceiveCtx(ctx)
			if err != nil {
				t.Fatalf("node %d: receive after %v: %v", node.ID(), got, err)
			}
			if msg.Kind < 0 {
				t.Fatalf("node %d: membership event %d from %d surfaced during a flap", node.ID(), msg.Kind, msg.From)
			}
			var p payload
			if err := msg.Decode(&p); err != nil {
				t.Fatal(err)
			}
			got = append(got, p.N)
		}
		return got
	}

	// Pre-flap traffic establishes delivery state on both ends.
	for i := 1; i <= 3; i++ {
		if err := master.Send(1, 7, payload{N: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := recvN(workers[1], 3); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("pre-flap delivery %v", got)
	}

	// The blip: every conn severed, then more frames sent into the gap.
	gated.Store(true)
	master.DropLinks()
	for i := 4; i <= 8; i++ {
		if err := master.Send(1, 7, payload{N: i}); err != nil {
			t.Fatalf("mid-flap send %d: %v", i, err)
		}
	}
	close(gate)
	if got := recvN(workers[1], 5); fmt.Sprint(got) != "[4 5 6 7 8]" {
		t.Fatalf("post-flap delivery %v, want [4 5 6 7 8] exactly once in order", got)
	}

	// The healed link works in both directions.
	if err := workers[1].Send(0, 8, payload{N: 9}); err != nil {
		t.Fatalf("reply send: %v", err)
	}
	if got := recvN(master, 1); got[0] != 9 {
		t.Fatalf("reply delivery %v", got)
	}

	flaps, replayed := master.LinkStats()
	if flaps < 1 {
		t.Fatalf("master LinkStats flaps = %d, want ≥ 1", flaps)
	}
	if replayed < 1 {
		t.Fatalf("master LinkStats replayed = %d, want ≥ 1 (frames were sent into the gap)", replayed)
	}
}

// gatedConn holds every write until gate closes.
type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (c gatedConn) Write(b []byte) (int, error) {
	<-c.gate
	return c.Conn.Write(b)
}

// TestGraceExpiryEscalatesToPeerDown pins the backstop: a link that cannot
// resume inside LinkGrace must still surface the historical failure event
// — the grace window delays escalation, it never suppresses it.
func TestGraceExpiryEscalatesToPeerDown(t *testing.T) {
	cfg := Config{
		Fingerprint:    7,
		LinkGrace:      300 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    500 * time.Millisecond,
	}
	master, workers := startCluster(t, 1, cfg)
	master.NotifyFailures(true)
	// A genuinely dead peer: the worker's process is gone, listener and all,
	// so the master's reconnect loop has nothing to dial.
	workers[1].Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	msg, err := master.ReceiveCtx(ctx)
	if err != nil {
		t.Fatalf("master receive: %v", err)
	}
	if msg.Kind != -1 || msg.From != 1 { // cluster.KindPeerDown
		t.Fatalf("got kind %d from %d, want KindPeerDown from worker 1", msg.Kind, msg.From)
	}
	if msg.Cause == nil || !strings.Contains(msg.Cause.Error(), "LinkGrace") {
		t.Fatalf("cause = %v, want the unhealed grace window", msg.Cause)
	}
}

// TestLinkGraceBoundedWhenPeerHangs pins the grace window as an upper
// bound: when the suspended link's peer address accepts and never answers
// the resume, the dialer escalates once LinkGrace is spent — not after a
// JoinTimeout-long handshake read — so a flap still heals or fails inside
// one protocol receive wait.
func TestLinkGraceBoundedWhenPeerHangs(t *testing.T) {
	cfg := Config{Fingerprint: 7, LinkGrace: 300 * time.Millisecond, JoinTimeout: 3 * time.Second}
	master, workers := startCluster(t, 1, cfg)
	master.NotifyFailures(true)
	addr := workers[1].Addr()
	workers[1].ln.Close()
	hung(t, addr)
	start := time.Now()
	master.DropLinks()
	msg := receiveKind(t, master, 5*time.Second)
	if msg.Kind != cluster.KindPeerDown || msg.From != 1 {
		t.Fatalf("got kind %d from %d, want KindPeerDown from worker 1", msg.Kind, msg.From)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a 300ms grace window escalated after %v against a hung peer", d)
	}
}

// TestRetainedFramesBoundEscalates pins the retained ring's bound: a link
// suspended inside a long grace window whose peer cannot be reached queues
// maxRetainedFrames sends for the replay, and the one after them fails,
// naming the bound, and escalates the link to a peer death instead of
// growing the ring without limit.
func TestRetainedFramesBoundEscalates(t *testing.T) {
	cfg := Config{Fingerprint: 7, LinkGrace: time.Minute}
	master, workers := startCluster(t, 1, cfg)
	master.NotifyFailures(true)
	workers[1].ln.Close() // the master's redials find nobody listening
	master.DropLinks()
	for i := 1; i <= maxRetainedFrames; i++ {
		if err := master.Send(1, 7, payload{N: i}); err != nil {
			t.Fatalf("send %d of %d into the suspended link: %v", i, maxRetainedFrames, err)
		}
	}
	err := master.Send(1, 7, payload{N: maxRetainedFrames + 1})
	if want := fmt.Sprintf("over the bound of %d", maxRetainedFrames); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("send %d = %v, want an error naming %q", maxRetainedFrames+1, err, want)
	}
	if !errors.Is(err, cluster.ErrPeerDown) {
		t.Fatalf("send %d = %v, want it to escalate to cluster.ErrPeerDown", maxRetainedFrames+1, err)
	}
	if msg := receiveKind(t, master, 5*time.Second); msg.Kind != cluster.KindPeerDown || msg.From != 1 {
		t.Fatalf("got kind %d from %d, want KindPeerDown from worker 1", msg.Kind, msg.From)
	}
}
