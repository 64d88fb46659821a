package netcluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
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

// frame is the single on-the-wire record. Every frame is individually
// gob-encoded and length-prefixed (4-byte big-endian), so a reader can
// bound allocations and resynchronisation is trivial: a short read is a
// dead link, never a half-parsed stream.
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
	// last-delivered sequence for the reverse direction. All three stay
	// zero — and, gob omitting zero fields, off the wire — when the grace
	// window is disabled, keeping the frame encoding byte-identical to
	// earlier releases.
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

	// Codec is the protocol-version byte: the payload encoding this build
	// speaks, carried on ctrlWelcome (offer), ctrlWelcomeAck (echo) and
	// ctrlHello (peer dials assert it); requests carry none. The only
	// accepted value is protocolVersion; the field keeps the name it was
	// first shipped under because gob puts field names on the wire.
	Codec uint8
}

// protocolVersion is the one value of frame.Codec this build accepts. It
// names the payload format — internal/wire's sealing plus the message
// kinds and field layouts of the protocols above — and is bumped whenever
// a payload changes shape; a peer offering any other byte (0 is what a
// binary that predates the byte sends: gob omits the zero field) would
// mis-decode payloads, so every handshake refuses it by name. History: 1,
// the first internal/wire payloads; 2, core's install message gained
// Replace and kinds 12, 18 and 19 were retired.
const protocolVersion uint8 = 2

const lenPrefixSize = 4

// writeFrame length-prefix-writes one gob-encoded frame. Callers serialise
// writes per connection via the owning link's mutex.
func writeFrame(w io.Writer, f *frame) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, lenPrefixSize)) // reserve the prefix
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return fmt.Errorf("netcluster: encode frame: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:lenPrefixSize], uint32(len(b)-lenPrefixSize))
	_, err := w.Write(b)
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
	var f frame
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&f); err != nil {
		return nil, fmt.Errorf("netcluster: decode frame: %w", err)
	}
	return &f, nil
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
