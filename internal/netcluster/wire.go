package netcluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// Frame control tags. Data frames carry protocol messages; the rest are
// transport-level (handshake, liveness) and are excluded from the Table-4
// traffic accounting.
const (
	ctrlData uint8 = iota
	// ctrlHello opens a peer-dialed connection: From identifies the dialer,
	// Fingerprint must match the accepter's.
	ctrlHello
	// ctrlWelcome is the master's join offer: node-id assignment, cluster
	// size, the worker address book and the cost model every node must use.
	ctrlWelcome
	// ctrlWelcomeAck confirms a welcome. With Err set it is a refusal:
	// the worker's of a welcome it cannot accept, or the master's (or a
	// worker's, which admits no one) of a join or rejoin request.
	ctrlWelcomeAck
	// ctrlHeartbeat keeps a link observably alive while no data flows.
	ctrlHeartbeat
	// ctrlGoodbye announces an orderly departure, so the peer's reader
	// treats the following EOF as a clean close rather than a failure —
	// a worker that finished the protocol must not look like a crash to a
	// master still collecting from its siblings.
	ctrlGoodbye
	// ctrlJoinReq asks a running master to admit a late worker: Addr is
	// the joiner's listen address (for the ring's lazy dials) and
	// Fingerprint must match the master's. The master answers with a
	// ctrlWelcome assigning the next node id — or a ctrlWelcomeAck with
	// Err set when the join is refused.
	ctrlJoinReq
	// ctrlPeerUpdate broadcasts a grown address book to the existing
	// workers after a late join: Nodes is the new cluster size and Peers
	// the extended address list. Transport-level only — the protocol
	// learns of the joiner through the master's in-band KindPeerUp event,
	// and workers learn the new ring from the master's redeal.
	ctrlPeerUpdate
	// ctrlRejoinReq asks a (restarted) master to re-admit a worker that
	// already holds a node id: From is the worker's existing id, Addr its
	// listen address and Fingerprint must match the master's. Unlike
	// ctrlJoinReq no new id is assigned — the master answers ctrlWelcome
	// echoing the id, or ctrlWelcomeAck with Err when the rejoin is
	// refused (wrong fingerprint, unknown id, or a peer already declared
	// dead by a still-running master).
	ctrlRejoinReq
	// ctrlLinkResume reopens a dropped link session after a transient
	// failure (Config.LinkGrace): From names the dialer, Session the link
	// session being resumed, Ack the highest frame sequence the dialer has
	// delivered from the acceptor. The acceptor answers ctrlLinkResumeAck
	// with its own Ack — or Err when the session is unknown or resumption
	// is refused — and both sides replay their retained frames above the
	// peer's ack, restoring exactly-once in-order delivery.
	ctrlLinkResume
	// ctrlLinkResumeAck completes (or, with Err set, refuses) a link
	// resume.
	ctrlLinkResumeAck
)

// frame is the single on-the-wire record. Every frame is length-prefixed
// (4-byte big-endian), so a reader can bound allocations and
// resynchronisation is trivial: a short read is a dead link, never a
// half-parsed stream. The body is a flat encoding (DESIGN.md §12, "Frame
// envelope"): Ctrl, a flags byte naming the optional fields that follow —
// the link-session header and the handshake block — then From, To, Kind
// and SendTime as varints, and the payload to the end of the body.
type frame struct {
	Ctrl     uint8
	From     int32
	To       int32
	Kind     int32
	SendTime int64
	Payload  []byte

	// Link-session fields (Config.LinkGrace). Session identifies one
	// dialer-chosen link incarnation, Seq is the per-link send sequence of
	// a retained frame, and Ack piggybacks the sender's cumulative
	// last-delivered sequence for the reverse direction. Each is written
	// only when non-zero, so a node without a grace window sends none.
	Session uint64
	Seq     uint64
	Ack     uint64

	// Handshake fields (ctrlHello / ctrlWelcome / ctrlWelcomeAck /
	// ctrlJoinReq / ctrlRejoinReq / ctrlPeerUpdate / ctrlLinkResume).
	NodeID      int32
	Nodes       int32
	Peers       []string
	Addr        string // ctrlJoinReq / ctrlRejoinReq: the worker's listen address
	Fingerprint uint64
	Model       cluster.CostModel
	Err         string

	// Version is the protocol version this build speaks, carried on
	// ctrlWelcome (offer), ctrlWelcomeAck (echo) and ctrlHello (peer dials
	// assert it); requests carry none. The only accepted value is
	// protocolVersion.
	Version uint8
}

// protocolVersion is the one value of frame.Version this build accepts. It
// names the frame envelope and the payload format — internal/wire's
// sealing plus the message kinds and field layouts of the protocols above
// — and is bumped whenever either changes shape; a peer offering any
// other version would mis-decode frames, so every handshake refuses it by
// name. History: 1, the first internal/wire payloads; 2, core's install
// message gained Replace and kinds 12, 18 and 19 were retired; 3, the
// flat frame envelope replaced per-frame gob.
const protocolVersion uint8 = 3

const lenPrefixSize = 4

// maxHandshakeBytes bounds every frame read that precedes a fingerprint
// check — an accepted connection's opening frame and the answer to a
// handshake request — so a stranger cannot make a node allocate
// MaxFrameBytes by sending a length prefix. A welcome's address book is
// the largest handshake frame; 64 KiB holds thousands of workers.
const maxHandshakeBytes = 64 << 10

// Frame flags: which optional fields follow Ctrl and the flags byte, in
// this order. A flag is set exactly when its field is non-zero (for the
// handshake block: when any of its fields is), so every frame has one
// encoding.
const (
	flagSession   = 1 << iota // Session, 8 bytes little-endian
	flagSeq                   // Seq, uvarint
	flagAck                   // Ack, uvarint
	flagHandshake             // Version, NodeID, Nodes, Peers, Addr, Fingerprint, Model, Err
	knownFlags    = flagSession | flagSeq | flagAck | flagHandshake
)

// envelopeError reports a frame body that does not parse as this build's
// envelope — what the gob frames of protocol versions 1 and 2 look like
// to it. On a handshake it is a refusal that names the version.
type envelopeError struct{ cause error }

func (e envelopeError) Error() string {
	return fmt.Sprintf("netcluster: frame does not parse as a version-%d envelope (%v) — mixed-version cluster refused",
		protocolVersion, e.cause)
}

func (e envelopeError) Unwrap() error { return e.cause }

// hasHandshake reports whether any handshake field is set.
func (f *frame) hasHandshake() bool {
	return f.Version != 0 || f.NodeID != 0 || f.Nodes != 0 || len(f.Peers) != 0 || f.Addr != "" ||
		f.Fingerprint != 0 || f.Model != (cluster.CostModel{}) || f.Err != ""
}

// appendFrame appends f's length prefix and body to b.
func appendFrame(b []byte, f *frame) []byte {
	start := len(b)
	w := wire.Writer{B: append(b, 0, 0, 0, 0, f.Ctrl, 0)}
	var flags byte
	if f.Session != 0 {
		flags |= flagSession
		w.Fixed64(f.Session)
	}
	if f.Seq != 0 {
		flags |= flagSeq
		w.Uvarint(f.Seq)
	}
	if f.Ack != 0 {
		flags |= flagAck
		w.Uvarint(f.Ack)
	}
	if f.hasHandshake() {
		flags |= flagHandshake
		w.Byte(f.Version)
		w.Varint(int64(f.NodeID))
		w.Varint(int64(f.Nodes))
		w.Strings(f.Peers)
		w.String(f.Addr)
		w.Fixed64(f.Fingerprint)
		w.Varint(int64(f.Model.Latency))
		w.F64(f.Model.BandwidthBps)
		w.F64(f.Model.NsPerInference)
		w.String(f.Err)
	}
	w.Varint(int64(f.From))
	w.Varint(int64(f.To))
	w.Varint(int64(f.Kind))
	w.Varint(f.SendTime)
	b = append(w.B, f.Payload...)
	b[start+lenPrefixSize+1] = flags
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-lenPrefixSize))
	return b
}

// decodeFrame parses one frame body. Payload aliases body, so a decoded
// data frame costs no allocation beyond the frame itself; every other
// allocation is bounded by len(body). Only the bytes appendFrame writes
// decode: a set flag over a zero field, a varint that is not minimal or an
// int32 out of range is corrupt.
func decodeFrame(body []byte) (*frame, error) {
	if len(body) < 2 {
		return nil, envelopeError{fmt.Errorf("%w: %d-byte body", wire.ErrTruncated, len(body))}
	}
	f := &frame{Ctrl: body[0]}
	flags := body[1]
	if f.Ctrl > ctrlLinkResumeAck || flags&^knownFlags != 0 {
		return nil, envelopeError{fmt.Errorf("%w: ctrl %#02x, flags %#02x", wire.ErrCorrupt, f.Ctrl, flags)}
	}
	r := wire.NewReader(body[2:])
	i32 := func() int32 {
		v := r.Varint()
		if int64(int32(v)) != v {
			r.Failf("int32 field %d out of range", v)
		}
		return int32(v)
	}
	if flags&flagSession != 0 {
		if f.Session = r.Fixed64(); f.Session == 0 {
			r.Failf("session flag over a zero session")
		}
	}
	if flags&flagSeq != 0 {
		if f.Seq = r.Uvarint(); f.Seq == 0 {
			r.Failf("seq flag over a zero seq")
		}
	}
	if flags&flagAck != 0 {
		if f.Ack = r.Uvarint(); f.Ack == 0 {
			r.Failf("ack flag over a zero ack")
		}
	}
	if flags&flagHandshake != 0 {
		f.Version = r.Byte()
		f.NodeID = i32()
		f.Nodes = i32()
		f.Peers = r.Strings()
		f.Addr = r.String()
		f.Fingerprint = r.Fixed64()
		f.Model.Latency = time.Duration(r.Varint())
		f.Model.BandwidthBps = r.F64()
		f.Model.NsPerInference = r.F64()
		f.Err = r.String()
		if r.Err() == nil && !f.hasHandshake() {
			r.Failf("handshake flag over an empty handshake block")
		}
	}
	f.From = i32()
	f.To = i32()
	f.Kind = i32()
	f.SendTime = r.Varint()
	if err := r.Err(); err != nil {
		return nil, envelopeError{err}
	}
	if rest := r.Remaining(); rest > 0 {
		f.Payload = body[len(body)-rest:]
	}
	return f, nil
}

// writeFrame writes one length-prefixed frame in a single Write. Callers
// serialise writes per connection via the owning link's mutex.
func writeFrame(w io.Writer, f *frame) error {
	_, err := w.Write(appendFrame(make([]byte, 0, 64+len(f.Payload)), f))
	return err
}

// readFrame reads one length-prefixed frame, rejecting frames larger than
// maxBytes so a corrupt prefix cannot allocate unbounded memory.
func readFrame(r io.Reader, maxBytes int) (*frame, error) {
	var prefix [lenPrefixSize]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(prefix[:]))
	if n <= 0 || n > maxBytes {
		return nil, fmt.Errorf("netcluster: frame length %d out of range (max %d)", n, maxBytes)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeFrame(body)
}

// link is one TCP connection to a peer. Data sends go out on links this
// node dialed (plus, on workers, the master-dialed connection, which is
// bidirectional); every link — dialed or accepted — runs a reader that
// feeds the node's inbox and a heartbeater that keeps the reverse
// direction's liveness tracking fed.
// linkSession carries the session identity a link is registered with.
// sid is the dialer-chosen session id (zero when LinkGrace is off, in
// which case the link behaves exactly as before this layer existed);
// dialer marks the side that re-dials after a transient failure; addr is
// the remote listen address the dialer reconnects to.
type linkSession struct {
	sid    uint64
	dialer bool
	addr   string
}

type link struct {
	peer int
	conn net.Conn

	// writeTimeout bounds every frame write. Without it, a peer that
	// stops draining (SIGSTOP, blackholed route) would block a writer on
	// a full TCP buffer while holding wmu — which would also block the
	// heartbeater, whose timeout check is the only thing that could have
	// broken the stall.
	writeTimeout time.Duration

	// Session identity (immutable after newLink).
	sess linkSession

	wmu sync.Mutex // serialises writeFrame calls

	mu       sync.Mutex
	lastSeen time.Time
	closed   bool

	// Link-session state (guarded by mu). While suspended the conn is
	// dead and outbound frames only accumulate in retained; a successful
	// resume swaps a fresh conn in and replays the unacked tail. flap
	// counts suspensions, so stale failure reports and expired grace
	// watchers recognise that the incarnation they observed is gone.
	suspended bool
	flap      int
	sendSeq   uint64   // last sequence assigned to an outbound frame
	recvSeq   uint64   // last sequence delivered from the peer
	retained  []*frame // sent-but-unacked frames, ascending Seq
}

func newLink(peer int, conn net.Conn, writeTimeout time.Duration, sess linkSession) *link {
	return &link{peer: peer, conn: conn, writeTimeout: writeTimeout, sess: sess, lastSeen: time.Now()}
}

func (l *link) write(f *frame) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	if l.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(l.writeTimeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return writeFrame(conn, f)
}

// currentConn returns the live conn, or nil while suspended/closed.
func (l *link) currentConn() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.suspended || l.closed {
		return nil
	}
	return l.conn
}

// acceptSeq records delivery of sequence seq and reports whether the
// frame is new; duplicates (a replay overlapping frames that already
// arrived before the flap) are dropped by the caller.
func (l *link) acceptSeq(seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.recvSeq {
		return false
	}
	l.recvSeq = seq
	return true
}

func (l *link) loadRecvSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recvSeq
}

// prune drops retained frames the peer has cumulatively acked.
func (l *link) prune(ack uint64) {
	l.mu.Lock()
	l.pruneLocked(ack)
	l.mu.Unlock()
}

func (l *link) pruneLocked(ack uint64) {
	i := 0
	for i < len(l.retained) && l.retained[i].Seq <= ack {
		i++
	}
	if i > 0 {
		kept := copy(l.retained, l.retained[i:])
		for j := kept; j < len(l.retained); j++ {
			l.retained[j] = nil // release the payloads
		}
		l.retained = l.retained[:kept]
	}
}

func (l *link) touch() {
	l.mu.Lock()
	l.lastSeen = time.Now()
	l.mu.Unlock()
}

func (l *link) sinceSeen() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Since(l.lastSeen)
}

func (l *link) close() {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if !already {
		l.conn.Close()
	}
}

func (l *link) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}
