// Package netcluster implements the cluster.Transport abstraction over
// real TCP connections, turning the simulated p²-mdie cluster into a
// multi-process deployment: one master process and p worker processes,
// exchanging the same encoded protocol messages the simulation
// exchanges in memory (the paper's LAM/MPI Beowulf run, §5).
//
// Topology and admission: every worker listens (`p2mdie -serve`); the
// master dials all workers at once and welcomes each with its node id
// (1..p), the cluster size, the worker address book and the cost model,
// so the cluster assembles in one round trip. A late joiner
// (Join, against a master started with ConnectOn) and an orphaned worker
// rejoining a restarted master (RejoinMaster, against Resume) run the same
// exchange: whatever request opens it, the master's side is one function
// (offerWelcome) and the worker's another (takeWelcome). Every handshake
// frame — welcome, ack, the ring's hello, a link resume — passes one
// check: the dataset fingerprint, since a worker loaded with different
// data would silently desynchronise the interned symbol tables the
// payloads reference, and the protocol-version byte naming the payload
// encoding (internal/wire). A mismatch is refused by name at admission
// instead of corrupting the run. Worker-to-worker pipeline links (the
// kindStage ring) are dialed lazily on first send using the address book.
//
// Redials: every dial that may meet a peer not up yet — the master's
// initial dials, a joiner's, an orphan's rejoin, a suspended link's
// resume — runs in one loop with jittered exponential backoff that stops
// at a refusal, at Close, at the initial join's halt after another
// worker's admission failed, or when its window (JoinTimeout, the orphan
// timeout, LinkGrace) closes; no single try's dial or handshake read
// outlives the window.
//
// Accounting matches the simulation exactly: payloads are encoded with the
// same cluster.EncodePayload, per-link byte/message counters cover payload bytes
// only (framing and heartbeats excluded), and each node carries the same
// cost-model virtual clock — Compute advances it by measured work, a
// received message advances it to the sender's clock plus latency plus
// bytes/bandwidth (the send time travels in the frame header). Makespan
// and Table-4 traffic of a TCP run are therefore directly comparable to a
// simulated run's.
//
// Failure model: every connection runs a heartbeater, so a dead or
// partitioned peer is noticed within PeerTimeout even while both sides are
// deep in computation; a link error or timeout declares the peer dead
// (peerDown), which a blocked ReceiveCtx returns as a KindPeerDown event
// carrying what was detected instead of deadlocking — the contract the
// simulated transport's Kill keeps too.
package netcluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// Config parameterises a netcluster node.
type Config struct {
	// Model is the virtual-clock cost model. Workers adopt the master's
	// model at join, so only the master's setting matters cluster-wide.
	Model cluster.CostModel
	// Fingerprint identifies the loaded dataset and settings. Master and
	// workers must agree; see core.Fingerprint.
	Fingerprint uint64
	// HeartbeatEvery is the per-link keep-alive period. Default 500ms.
	HeartbeatEvery time.Duration
	// PeerTimeout declares a silent peer dead. Default 20 heartbeat
	// periods (10s at the default HeartbeatEvery) — derived, not fixed,
	// so raising the heartbeat period cannot silently make idle-but-
	// healthy peers look dead.
	PeerTimeout time.Duration
	// JoinTimeout bounds a worker's wait for the master's welcome and the
	// master's and a joiner's redials, and caps every single redial try
	// inside a shorter window (a rejoin, a link resume). Default 60s.
	JoinTimeout time.Duration
	// LinkGrace is the reconnect grace window for transient link failures.
	// Zero (the default) disables the link-session layer entirely: a read,
	// write or heartbeat failure escalates immediately, as it always has.
	// When positive, a failed link is suspended and re-dialed with backoff
	// for up to this long before the failure surfaces as a peer death.
	LinkGrace time.Duration
	// ShapeConn, when non-nil, wraps every TCP connection this node
	// creates or accepts — the hook the shaped-link harness
	// (internal/shape) uses to impose latency/bandwidth without root.
	ShapeConn func(net.Conn) net.Conn
}

// wrapConn applies the ShapeConn hook, if any.
func (c Config) wrapConn(conn net.Conn) net.Conn {
	if c.ShapeConn != nil {
		return c.ShapeConn(conn)
	}
	return conn
}

func (c Config) withDefaults() Config {
	c.Model = c.Model.WithDefaults()
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 20 * c.HeartbeatEvery
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 60 * time.Second
	}
	return c
}

// validate rejects knob combinations that cannot work, after defaults
// are applied: a heartbeat period at least as long as PeerTimeout
// declares every idle-but-healthy peer dead before the next keep-alive
// can be written, and a negative grace window is meaningless.
func (c Config) validate() error {
	if c.HeartbeatEvery >= c.PeerTimeout {
		return fmt.Errorf("netcluster: HeartbeatEvery %s must be shorter than PeerTimeout %s (a peer is declared dead after PeerTimeout of silence, so the keep-alive must fit inside it)",
			c.HeartbeatEvery, c.PeerTimeout)
	}
	if c.LinkGrace < 0 {
		return fmt.Errorf("netcluster: LinkGrace %s must not be negative (zero disables the grace window)", c.LinkGrace)
	}
	return nil
}

// Node is one process's endpoint on a TCP cluster. It implements
// cluster.Transport; all Transport methods must be called from the single
// goroutine driving the protocol, as with the simulated *cluster.Node.
type Node struct {
	id    int
	size  int
	cfg   Config
	clock atomic.Int64 // cluster.VTime

	ln    net.Listener // accepts peer dials, joins, rejoins and link resumes
	inbox *cluster.Inbox

	mu       sync.Mutex
	links    map[int]*link         // send links by peer id
	all      []*link               // every link, including receive-only accepted ones
	pending  map[net.Conn]struct{} // accepted conns mid-handshake
	peers    []string              // worker listen addresses by node id ("" for 0)
	departed map[int]bool          // peers that said an orderly goodbye
	down     map[int]bool          // peers declared dead
	closing  bool

	// joinMu serialises late-join admissions on the master: one joiner's
	// welcome/ack exchange completes (and commits the grown size) before
	// the next begins, so concurrent joiners cannot be offered the same
	// node id.
	joinMu sync.Mutex
	// unannounced counts the late joiners committed on the master — size,
	// links, address book and traffic table grown, sends to them work —
	// whose KindPeerUp ReceiveCtx has not returned yet. They are the
	// highest ids, and Size and Members leave them out: the protocol sees
	// the membership it has been told about, not what the accept goroutine
	// has got to (guarded by mu).
	unannounced int

	// Link-resilience counters (see LinkStats): suspensions entered and
	// retained frames replayed by successful resumes.
	linkFlaps      atomic.Int64
	replayedFrames atomic.Int64

	trMu sync.Mutex
	tr   cluster.Traffic // outgoing payload traffic, this node's rows

	done chan struct{} // closed by Close; unblocks heartbeat loops
	wg   sync.WaitGroup
}

var _ cluster.Transport = (*Node)(nil)
var _ cluster.TrafficReporter = (*Node)(nil)

// newNode validates cfg and builds a node of size nodes over ln (closing
// ln when cfg is invalid). ServeOn and Join build it blank — id 0, size 0
// — and install what the master's welcome assigns.
func newNode(id, size int, peers []string, ln net.Listener, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		if ln != nil {
			ln.Close()
		}
		return nil, err
	}
	return &Node{
		id:      id,
		size:    size,
		cfg:     cfg,
		ln:      ln,
		inbox:   cluster.NewInbox(),
		links:   make(map[int]*link),
		pending: make(map[net.Conn]struct{}),
		peers:   peers,
		tr:      cluster.NewTraffic(size),
		done:    make(chan struct{}),
	}, nil
}

// ID returns the node id (0 = master).
func (n *Node) ID() int { return n.id }

// Size returns the cluster size p+1 as announced to the protocol: on the
// master a late joiner counts from the moment ReceiveCtx returns its
// KindPeerUp, not from the handshake's commit on the accept goroutine.
func (n *Node) Size() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.size - n.unannounced
}

// Clock returns the node's virtual time.
func (n *Node) Clock() cluster.VTime { return cluster.VTime(n.clock.Load()) }

// Members returns the announced nodes (see Size) not declared dead, self
// excluded, ascending.
func (n *Node) Members() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	size := n.size - n.unannounced
	out := make([]int, 0, size-1)
	for id := 0; id < size; id++ {
		if id != n.id && !n.down[id] {
			out = append(out, id)
		}
	}
	return out
}

// NotifyFailures has no effect (see cluster.Transport.NotifyFailures).
func (n *Node) NotifyFailures(bool) {}

// peerDown declares peer dead for cause — a heartbeat timeout, a link
// error, a failed dial or send, an unhealed grace window: its links close,
// sends to it start failing with cluster.ErrPeerDown, and one synthetic
// KindPeerDown event carrying the cause joins the inbox. Idempotent; a
// no-op once the node itself is closing.
func (n *Node) peerDown(peer int, cause error) {
	n.mu.Lock()
	if n.closing || n.down[peer] {
		n.mu.Unlock()
		return
	}
	if n.down == nil {
		n.down = make(map[int]bool)
	}
	n.down[peer] = true
	var dead []*link
	for _, l := range n.all {
		if l.peer == peer {
			dead = append(dead, l)
		}
	}
	n.mu.Unlock()
	for _, l := range dead {
		l.close()
	}
	n.inbox.Put(cluster.Message{From: peer, To: n.id, Kind: cluster.KindPeerDown,
		Cause: fmt.Errorf("netcluster: node %d: link to node %d failed: %w", n.id, peer, cause)})
}

func (n *Node) isDown(peer int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[peer]
}

// Model returns the cost model in force (the master's, cluster-wide).
func (n *Node) Model() cluster.CostModel { return n.cfg.Model }

// Compute advances the virtual clock by units of work, exactly as the
// simulated node does.
func (n *Node) Compute(units int64) {
	if units <= 0 {
		return
	}
	n.clock.Add(int64(cluster.VTime(float64(units) * n.cfg.Model.NsPerInference)))
}

func (n *Node) advanceTo(t cluster.VTime) {
	if t > n.Clock() {
		n.clock.Store(int64(t))
	}
}

// Traffic snapshots this node's outgoing per-link payload counters.
func (n *Node) Traffic() cluster.Traffic {
	n.trMu.Lock()
	defer n.trMu.Unlock()
	out := cluster.NewTraffic(n.tr.N)
	copy(out.Bytes, n.tr.Bytes)
	copy(out.Msgs, n.tr.Msgs)
	return out
}

func (n *Node) account(to int, payloadBytes int) {
	n.trMu.Lock()
	if to >= n.tr.N {
		n.tr.Grow(to + 1) // a late join grew the cluster under us
	}
	n.tr.Add(n.id, to, int64(payloadBytes), 1)
	n.trMu.Unlock()
}

// applyPeerUpdate installs a grown cluster size and address book (a late
// worker joined at the master). Updates arrive on the ordered master link
// before any protocol traffic that could reference the new node, so a
// stale-looking update (smaller than the current size) is simply ignored.
func (n *Node) applyPeerUpdate(f *frame) {
	n.mu.Lock()
	if int(f.Nodes) > n.size {
		n.size = int(f.Nodes)
		n.peers = f.Peers
	}
	n.mu.Unlock()
	n.trMu.Lock()
	n.tr.Grow(int(f.Nodes))
	n.trMu.Unlock()
}

// Send encodes v (cluster.EncodePayload) and ships it to node to.
// Sends to self loop through the inbox without touching the network, as
// in the simulation.
func (n *Node) Send(to int, kind int, v any) error {
	payload, err := cluster.EncodePayload(v)
	if err != nil {
		return fmt.Errorf("netcluster: send from %d to %d kind %d: %w", n.id, to, kind, err)
	}
	return n.sendPayload(to, kind, payload)
}

// Broadcast sends v to every node in targets, encoding once.
func (n *Node) Broadcast(targets []int, kind int, v any) error {
	payload, err := cluster.EncodePayload(v)
	if err != nil {
		return fmt.Errorf("netcluster: broadcast from %d kind %d: %w", n.id, kind, err)
	}
	for _, to := range targets {
		if err := n.sendPayload(to, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

func (n *Node) sendPayload(to, kind int, payload []byte) error {
	n.mu.Lock()
	size := n.size
	n.mu.Unlock()
	if to < 0 || to >= size {
		return fmt.Errorf("netcluster: send to unknown node %d (cluster size %d)", to, size)
	}
	if n.isDown(to) {
		return fmt.Errorf("netcluster: send from %d to %d kind %d: %w", n.id, to, kind, cluster.ErrPeerDown)
	}
	sendTime := n.Clock()
	n.account(to, len(payload))
	if to == n.id {
		n.inbox.Put(cluster.Message{
			From: n.id, To: to, Kind: kind, Payload: payload,
			SendTime: sendTime, Arrive: sendTime + n.cfg.Model.TransferTime(len(payload)),
		})
		return nil
	}
	l, err := n.linkTo(to)
	if err == nil {
		err = n.sendSequenced(l, &frame{
			Ctrl: ctrlData, From: int32(n.id), To: int32(to), Kind: int32(kind),
			SendTime: int64(sendTime), Payload: payload,
		})
	}
	if err != nil {
		n.peerDown(to, err)
		return fmt.Errorf("netcluster: send from %d to %d kind %d: %v: %w", n.id, to, kind, err, cluster.ErrPeerDown)
	}
	return nil
}

// ReceiveCtx blocks until a protocol message or membership event arrives,
// the context is done, or the node closes (Close, the run's orderly end,
// a fatal handshake or ctrl frame). The receiver's clock advances to the
// message's virtual arrival time.
func (n *Node) ReceiveCtx(ctx context.Context) (cluster.Message, error) {
	msg, err := n.inbox.Take(ctx)
	if err != nil {
		return cluster.Message{}, err
	}
	if msg.Kind == cluster.KindPeerUp {
		// Announce a late joiner (ids are admitted and queued in order, so
		// it is the lowest unannounced one); a rejoining member's event
		// names an id already inside the announced range.
		n.mu.Lock()
		if msg.From >= n.size-n.unannounced {
			n.unannounced--
		}
		n.mu.Unlock()
	}
	n.advanceTo(msg.Arrive)
	return msg, nil
}

// Close shuts the node down in an orderly way: a goodbye frame tells every
// peer this departure is deliberate (their reader treats the following EOF
// as a clean close), pending local receivers unblock with ErrClosed, and
// every link closes. Use Abort when exiting on an error: an erroring
// node's peers must see a failure, not an orderly departure, or they
// could block forever waiting for protocol messages that will never come.
func (n *Node) Close() error { return n.shutdown(true) }

// Abort slams the node shut without goodbyes: peers observe a link
// failure, exactly as if the process had crashed.
func (n *Node) Abort() error { return n.shutdown(false) }

func (n *Node) shutdown(orderly bool) error {
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		return nil
	}
	n.closing = true
	links := append([]*link(nil), n.all...)
	pending := make([]net.Conn, 0, len(n.pending))
	for c := range n.pending {
		pending = append(pending, c)
	}
	ln := n.ln
	n.mu.Unlock()

	close(n.done)
	for _, c := range pending {
		c.Close() // unblock handshakes so wg.Wait below returns promptly
	}

	n.inbox.Fail(cluster.ErrClosed)
	if ln != nil {
		ln.Close()
	}
	for _, l := range links {
		if orderly {
			l.write(&frame{Ctrl: ctrlGoodbye, From: int32(n.id)})
		}
		l.close()
	}
	n.wg.Wait()
	return nil
}

func (n *Node) isClosing() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closing
}

// track records a conn mid-handshake so shutdown can cut it off; false
// once the node is closing.
func (n *Node) track(conn net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closing {
		return false
	}
	n.pending[conn] = struct{}{}
	return true
}

func (n *Node) untrack(conn net.Conn) {
	n.mu.Lock()
	delete(n.pending, conn)
	n.mu.Unlock()
}

// noteDeparture records an orderly goodbye from peer and reports whether
// this node's run is thereby over: for a worker, when the master departs;
// for the master, when every worker has.
func (n *Node) noteDeparture(peer int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.departed == nil {
		n.departed = make(map[int]bool)
	}
	n.departed[peer] = true
	if n.id != 0 {
		return n.departed[0]
	}
	for k := 1; k < n.size; k++ {
		if !n.departed[k] {
			return false
		}
	}
	return true
}

// registerLink installs a link and starts its reader and heartbeater.
func (n *Node) registerLink(peer int, conn net.Conn, sendable bool, sess linkSession) (*link, error) {
	l := newLink(peer, conn, n.cfg.PeerTimeout, sess)
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		conn.Close()
		return nil, cluster.ErrClosed
	}
	if sendable {
		if _, dup := n.links[peer]; dup {
			n.mu.Unlock()
			conn.Close()
			return nil, fmt.Errorf("netcluster: duplicate link to node %d", peer)
		}
		n.links[peer] = l
	}
	n.all = append(n.all, l)
	n.mu.Unlock()
	n.startLinkLoops(l, conn)
	return l, nil
}

// startLinkLoops launches the reader and heartbeater bound to one conn
// incarnation; a resume swaps the conn and starts fresh loops, and the
// old ones recognise the swap and exit. It lifts the read deadline the
// conn's handshake ran under: from here on, liveness is the heartbeater's.
func (n *Node) startLinkLoops(l *link, conn net.Conn) {
	conn.SetReadDeadline(time.Time{})
	n.wg.Add(2)
	go n.readLoop(l, conn)
	go n.heartbeatLoop(l, conn)
}

// linkTo returns the send link for peer, dialing it on first use (the lazy
// worker-to-worker ring edges).
func (n *Node) linkTo(peer int) (*link, error) {
	n.mu.Lock()
	l, ok := n.links[peer]
	addr := ""
	if !ok && peer < len(n.peers) {
		addr = n.peers[peer]
	}
	n.mu.Unlock()
	if ok {
		return l, nil
	}
	if addr == "" {
		return nil, fmt.Errorf("netcluster: no address for node %d", peer)
	}
	conn, err := n.dial(addr, n.cfg.JoinTimeout)
	if err != nil {
		return nil, fmt.Errorf("netcluster: dial node %d at %s: %w", peer, addr, err)
	}
	sess := n.newSession(addr)
	hello := &frame{Ctrl: ctrlHello, From: int32(n.id), Fingerprint: n.cfg.Fingerprint, Session: sess.sid, Version: protocolVersion}
	if err := writeFrame(conn, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netcluster: hello to node %d: %w", peer, err)
	}
	return n.registerLink(peer, conn, true, sess)
}

// readLoop decodes frames off one conn incarnation of a link until it
// dies. Any frame refreshes liveness; data frames join the shared inbox
// with their virtual arrival time computed under the cost model.
// Sequenced frames are deduplicated (a resume replay may overlap frames
// that arrived before the flap) and their piggybacked acks prune the
// reverse direction's retained ring.
func (n *Node) readLoop(l *link, conn net.Conn) {
	defer n.wg.Done()
	for {
		f, err := readFrame(conn, maxFrameBytes)
		if err != nil {
			if !n.isClosing() && !l.isClosed() {
				n.linkTrouble(l, conn, fmt.Errorf("read: %w", err))
			}
			return
		}
		l.touch()
		if f.Ack > 0 {
			l.prune(f.Ack)
		}
		switch f.Ctrl {
		case ctrlData:
			if f.Seq > 0 && !l.acceptSeq(f.Seq) {
				continue // replay duplicate, already delivered
			}
			sendTime := cluster.VTime(f.SendTime)
			n.inbox.Put(cluster.Message{
				From: int(f.From), To: int(f.To), Kind: int(f.Kind), Payload: f.Payload,
				SendTime: sendTime, Arrive: sendTime + n.cfg.Model.TransferTime(len(f.Payload)),
			})
		case ctrlHeartbeat:
			// touch above is all a heartbeat does.
		case ctrlPeerUpdate:
			if f.Seq > 0 && !l.acceptSeq(f.Seq) {
				continue
			}
			n.applyPeerUpdate(f)
		case ctrlGoodbye:
			// Orderly peer departure: every protocol frame it sent was
			// written (and, TCP being ordered, read) before the goodbye,
			// so silencing this link loses nothing. A departed master —
			// or, for the master, the departure of every worker — also
			// ends this node's run cleanly: anything still queued is
			// delivered first (the inbox drains before reporting closure).
			l.close()
			if n.noteDeparture(l.peer) {
				n.inbox.Fail(cluster.ErrClosed)
			}
			return
		default:
			n.inbox.Fail(fmt.Errorf("netcluster: node %d: unexpected ctrl frame %d from node %d", n.id, f.Ctrl, l.peer))
			return
		}
	}
}

// heartbeatLoop keeps one conn incarnation of a link observably alive and
// declares the peer dead after PeerTimeout of silence — the only way a
// hung (rather than closed) peer surfaces while this node is blocked in
// ReceiveCtx. Heartbeats piggyback the cumulative delivery ack, so a
// quiet reverse direction still prunes the peer's retained ring.
func (n *Node) heartbeatLoop(l *link, conn net.Conn) {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
		if n.isClosing() || l.isClosed() {
			return
		}
		if l.currentConn() != conn {
			return // suspended or resumed onto a fresh conn; its loops took over
		}
		if silent := l.sinceSeen(); silent > n.cfg.PeerTimeout {
			if !n.linkTrouble(l, conn, fmt.Errorf("silent for %s, over the %s PeerTimeout", silent.Round(time.Millisecond), n.cfg.PeerTimeout)) {
				l.close()
			}
			return
		}
		hb := &frame{Ctrl: ctrlHeartbeat, From: int32(n.id), Ack: l.loadRecvSeq()}
		if err := l.write(hb); err != nil {
			if !n.isClosing() && !l.isClosed() {
				n.linkTrouble(l, conn, fmt.Errorf("heartbeat: %w", err))
			}
			return
		}
	}
}
