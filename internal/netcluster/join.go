package netcluster

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/cluster"
)

// Connect dials the given worker addresses and assembles the cluster: the
// caller becomes the master (node 0) and workerAddrs[k-1] becomes node k.
// Each dial is retried until JoinTimeout so workers may still be starting.
// The welcome exchange assigns ids, distributes the address book and the
// cost model, and cross-checks dataset fingerprints.
func Connect(workerAddrs []string, cfg Config) (*Node, error) {
	return connect(nil, workerAddrs, cfg)
}

// ConnectOn is Connect with a pre-bound master listener: joins and worker
// rejoins are accepted on it from the start, and — crucially for
// crash-restart — its address becomes the master's own entry in the
// distributed address book, so every worker knows where to find a restarted
// master. A master run with checkpointing must use a stable listen address
// for the orphan-reconnect loop to work.
func ConnectOn(ln net.Listener, workerAddrs []string, cfg Config) (*Node, error) {
	return connect(ln, workerAddrs, cfg)
}

func connect(ln net.Listener, workerAddrs []string, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := len(workerAddrs)
	if p < 1 {
		return nil, fmt.Errorf("netcluster: no worker addresses")
	}
	masterAddr := ""
	if ln != nil {
		masterAddr = ln.Addr().String()
	}
	n := &Node{
		id:      0,
		size:    p + 1,
		cfg:     cfg,
		inbox:   newInbox(),
		links:   make(map[int]*link),
		peers:   append([]string{masterAddr}, workerAddrs...),
		ln:      ln,
		tr:      cluster.NewTraffic(p + 1),
		pending: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	for k := 1; k <= p; k++ {
		conn, err := dialRetry(workerAddrs[k-1], cfg.JoinTimeout)
		if err != nil {
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, fmt.Errorf("netcluster: worker %d at %s: %w", k, workerAddrs[k-1], err)
		}
		conn = cfg.wrapConn(conn)
		sess := n.newSession(workerAddrs[k-1])
		welcome := &frame{
			Ctrl:        ctrlWelcome,
			NodeID:      int32(k),
			Nodes:       int32(p + 1),
			Peers:       n.peers,
			Fingerprint: cfg.Fingerprint,
			Model:       cfg.Model,
			Session:     sess.sid,
			Codec:       protocolVersion,
		}
		if err := writeFrame(conn, welcome); err != nil {
			conn.Close()
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, fmt.Errorf("netcluster: welcome to worker %d: %w", k, err)
		}
		conn.SetReadDeadline(time.Now().Add(cfg.JoinTimeout))
		ack, err := readFrame(conn, cfg.MaxFrameBytes)
		conn.SetReadDeadline(time.Time{})
		if err != nil {
			conn.Close()
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, fmt.Errorf("netcluster: worker %d join ack: %w", k, err)
		}
		if ack.Ctrl != ctrlWelcomeAck {
			conn.Close()
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, fmt.Errorf("netcluster: worker %d: unexpected join reply ctrl %d", k, ack.Ctrl)
		}
		if ack.Err != "" {
			conn.Close()
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, fmt.Errorf("netcluster: worker %d rejected join: %s", k, ack.Err)
		}
		if ack.Fingerprint != cfg.Fingerprint {
			conn.Close()
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, fmt.Errorf("netcluster: worker %d fingerprint %x does not match master %x (different dataset or settings loaded)",
				k, ack.Fingerprint, cfg.Fingerprint)
		}
		if ack.Codec != protocolVersion {
			conn.Close()
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, fmt.Errorf("netcluster: worker %d confirmed protocol version byte %d, want %d — mixed-version cluster refused; rebuild the worker",
				k, ack.Codec, protocolVersion)
		}
		if _, err := n.registerLink(k, conn, true, sess); err != nil {
			conn.Close()
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, err
		}
	}
	if ln != nil {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		d := backoffDelay(attempt, dialBackoffBase, dialBackoffCap, rng)
		if until := time.Until(deadline); d > until {
			d = until
		}
		time.Sleep(d)
	}
}

// Retry pacing for dialRetry and the orphaned worker's rejoin loop: start
// fast (a restarting peer is usually back quickly), back off exponentially
// so a long outage doesn't hammer the address, and jitter so a fleet of
// workers orphaned by the same master crash doesn't reconnect in lockstep.
const (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffCap  = 2 * time.Second
)

// backoffDelay returns the pause before retry attempt (0-based):
// exponential doubling from base, capped at max, with equal jitter — the
// delay lands uniformly in [d/2, d), never zero, so retries spread out
// without ever busy-spinning.
func backoffDelay(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// Serve listens on addr, waits for the master's welcome (learning this
// node's id, the cluster size, the address book and the cost model), and
// returns the joined node. A fingerprint mismatch rejects the join on both
// sides. After joining, the listener keeps accepting the lazily-dialed
// worker-to-worker pipeline links.
func Serve(addr string, cfg Config) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcluster: listen %s: %w", addr, err)
	}
	return ServeOn(ln, cfg)
}

// ServeOn is Serve over an already-bound listener, letting the caller bind
// ":0" and publish the real address before the blocking join.
func ServeOn(ln net.Listener, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		ln.Close()
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		inbox:   newInbox(),
		links:   make(map[int]*link),
		pending: make(map[net.Conn]struct{}),
		ln:      ln,
		done:    make(chan struct{}),
	}

	// Join phase: accept until the master's welcome arrives. Peer hellos
	// cannot legitimately precede it (peers dial only once the protocol is
	// running), but a straggler is parked and registered after the join
	// rather than dropped.
	type parked struct {
		conn net.Conn
		f    *frame
	}
	var early []parked
	joinDeadline := time.Now().Add(cfg.JoinTimeout)
	for {
		if dl, ok := ln.(*net.TCPListener); ok {
			dl.SetDeadline(joinDeadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("netcluster: waiting for master on %s: %w", ln.Addr(), err)
		}
		conn = cfg.wrapConn(conn)
		conn.SetReadDeadline(joinDeadline)
		f, err := readFrame(conn, cfg.MaxFrameBytes)
		conn.SetReadDeadline(time.Time{})
		if err != nil {
			conn.Close()
			continue // a port scan or a dead dial; keep waiting for the master
		}
		if f.Ctrl == ctrlHello {
			early = append(early, parked{conn, f})
			continue
		}
		if f.Ctrl != ctrlWelcome {
			conn.Close()
			continue
		}
		if f.Fingerprint != cfg.Fingerprint {
			reject := &frame{Ctrl: ctrlWelcomeAck, Err: fmt.Sprintf(
				"fingerprint %x does not match master %x (different dataset or settings loaded)",
				cfg.Fingerprint, f.Fingerprint)}
			writeFrame(conn, reject)
			conn.Close()
			ln.Close()
			return nil, fmt.Errorf("netcluster: master fingerprint %x does not match ours %x", f.Fingerprint, cfg.Fingerprint)
		}
		if f.Codec != protocolVersion {
			reject := &frame{Ctrl: ctrlWelcomeAck, Err: fmt.Sprintf(
				"protocol version byte %d not understood (this build speaks %d)", f.Codec, protocolVersion)}
			writeFrame(conn, reject)
			conn.Close()
			ln.Close()
			return nil, fmt.Errorf("netcluster: master offered protocol version byte %d, this build speaks %d — mixed-version cluster refused", f.Codec, protocolVersion)
		}
		n.id = int(f.NodeID)
		n.size = int(f.Nodes)
		n.peers = f.Peers
		n.cfg.Model = f.Model.WithDefaults()
		n.tr = cluster.NewTraffic(n.size)
		if err := writeFrame(conn, &frame{Ctrl: ctrlWelcomeAck, From: f.NodeID, Fingerprint: cfg.Fingerprint, Codec: protocolVersion}); err != nil {
			conn.Close()
			ln.Close()
			return nil, fmt.Errorf("netcluster: join ack: %w", err)
		}
		if _, err := n.registerLink(0, conn, true, n.acceptedSession(f)); err != nil {
			ln.Close()
			return nil, err
		}
		break
	}
	if dl, ok := ln.(*net.TCPListener); ok {
		dl.SetDeadline(time.Time{})
	}
	for _, e := range early {
		n.acceptPeer(e.conn, e.f)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the worker's actual listen address (useful with ":0").
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// acceptLoop admits lazily-dialed peer links until the listener closes.
// Each handshake runs in its own goroutine: a connection that never sends
// its hello (a port scan, a stalled dialer) must not head-of-line-block
// the admission of healthy peers behind it.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		n.mu.Lock()
		if n.closing {
			n.mu.Unlock()
			conn.Close()
			return
		}
		conn = n.cfg.wrapConn(conn)
		n.pending[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.handshake(conn)
	}
}

// handshake reads an accepted connection's first frame and registers the
// peer. Shutdown closes pending connections, so the bounded read unblocks
// promptly rather than holding Close for the full JoinTimeout.
func (n *Node) handshake(conn net.Conn) {
	defer n.wg.Done()
	conn.SetReadDeadline(time.Now().Add(n.cfg.JoinTimeout))
	f, err := readFrame(conn, n.cfg.MaxFrameBytes)
	conn.SetReadDeadline(time.Time{})
	n.mu.Lock()
	delete(n.pending, conn)
	closing := n.closing
	n.mu.Unlock()
	if err != nil || closing {
		conn.Close()
		return
	}
	n.acceptPeer(conn, f)
}

func (n *Node) acceptPeer(conn net.Conn, f *frame) {
	if f.Ctrl == ctrlLinkResume {
		n.acceptLinkResume(conn, f)
		return
	}
	if f.Ctrl == ctrlJoinReq {
		if n.id == 0 {
			n.acceptJoin(conn, f)
		} else {
			conn.Close() // only the master admits joiners
		}
		return
	}
	if f.Ctrl == ctrlRejoinReq {
		if n.id == 0 {
			n.acceptRejoin(conn, f)
		} else {
			conn.Close() // only the master re-admits workers
		}
		return
	}
	n.mu.Lock()
	size := n.size
	n.mu.Unlock()
	if f.Ctrl != ctrlHello || int(f.From) <= 0 || int(f.From) >= size {
		conn.Close()
		return
	}
	if n.isDown(int(f.From)) {
		// Once declared dead a peer stays dead: membership recovery has
		// already redistributed its work, so a late reconnect is refused.
		conn.Close()
		return
	}
	if f.Fingerprint != n.cfg.Fingerprint {
		conn.Close()
		n.inbox.fail(fmt.Errorf("netcluster: node %d: peer %d fingerprint %x does not match ours %x",
			n.id, f.From, f.Fingerprint, n.cfg.Fingerprint))
		return
	}
	if f.Codec != protocolVersion {
		// A build that predates the version byte (0) or a different
		// cluster — either way its payloads would be undecodable.
		conn.Close()
		n.inbox.fail(fmt.Errorf("netcluster: node %d: peer %d offered protocol version byte %d, want %d — mixed-version cluster refused",
			n.id, f.From, f.Codec, protocolVersion))
		return
	}
	// Receive-only: data to this peer goes out on a link we dial ourselves.
	n.registerLink(int(f.From), conn, false, n.acceptedSession(f))
}

// ListenForJoins opens a join listener on a running master, so late
// workers can attach themselves to the cluster mid-run (`p2mdie -join`).
// Each admitted joiner is assigned the next node id, the address book is
// broadcast to the existing workers, and the protocol layer learns of the
// newcomer through an in-band cluster.KindPeerUp event — the symmetric
// counterpart of the KindPeerDown failure surface.
func (n *Node) ListenForJoins(addr string) error {
	if n.id != 0 {
		return fmt.Errorf("netcluster: only the master (node 0) accepts joins, this is node %d", n.id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("netcluster: join listener on %s: %w", addr, err)
	}
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		ln.Close()
		return cluster.ErrClosed
	}
	if n.ln != nil {
		n.mu.Unlock()
		ln.Close()
		return fmt.Errorf("netcluster: node already listening on %s", n.ln.Addr())
	}
	n.ln = ln
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop()
	return nil
}

// acceptJoin admits one late worker on the master (see ListenForJoins).
// Nothing is committed until the joiner has acknowledged the welcome, so a
// joiner that vanishes mid-handshake leaves no trace; joinMu serialises
// admissions so concurrent joiners get distinct ids.
func (n *Node) acceptJoin(conn net.Conn, f *frame) {
	reject := func(reason string) {
		writeFrame(conn, &frame{Ctrl: ctrlWelcomeAck, Err: reason})
		conn.Close()
	}
	if f.Fingerprint != n.cfg.Fingerprint {
		reject(fmt.Sprintf("fingerprint %x does not match master %x (different dataset or settings loaded)",
			f.Fingerprint, n.cfg.Fingerprint))
		return
	}
	if f.Addr == "" {
		reject("join request carries no listen address")
		return
	}
	n.joinMu.Lock()
	defer n.joinMu.Unlock()
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		conn.Close()
		return
	}
	id := n.size
	peers := append(append([]string(nil), n.peers...), f.Addr)
	n.mu.Unlock()

	welcome := &frame{
		Ctrl:        ctrlWelcome,
		NodeID:      int32(id),
		Nodes:       int32(id + 1),
		Peers:       peers,
		Fingerprint: n.cfg.Fingerprint,
		Model:       n.cfg.Model,
		Codec:       protocolVersion,
	}
	if err := writeFrame(conn, welcome); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Now().Add(n.cfg.JoinTimeout))
	ack, err := readFrame(conn, n.cfg.MaxFrameBytes)
	conn.SetReadDeadline(time.Time{})
	if err != nil || ack.Ctrl != ctrlWelcomeAck || ack.Err != "" || ack.Fingerprint != n.cfg.Fingerprint || ack.Codec != protocolVersion {
		conn.Close()
		return
	}

	// Commit: grow the cluster, register the link, tell everyone. The
	// address-book updates are written to each worker link before the
	// KindPeerUp event is enqueued, and the master's protocol only
	// references the joiner after consuming that event — so on TCP's
	// ordered links every worker knows the joiner's address before any
	// ring traffic could target it. Until ReceiveCtx has returned that
	// event the joiner stays out of Size and Members: this goroutine runs
	// whenever the kernel lets it, and a protocol that sized itself off a
	// commit it was never told about would deal the joiner in as an
	// initial worker.
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.size = id + 1
	n.unannounced++
	n.peers = peers
	var workerLinks []*link
	for peer, l := range n.links {
		if peer != 0 && peer != id {
			workerLinks = append(workerLinks, l)
		}
	}
	n.mu.Unlock()
	n.trMu.Lock()
	n.tr.Grow(id + 1)
	n.trMu.Unlock()
	if _, err := n.registerLink(id, conn, true, n.acceptedSession(f)); err != nil {
		conn.Close()
		return
	}
	for _, l := range workerLinks {
		// Best-effort: a broken link surfaces through its own failure
		// detection, and the dead worker will never dial the joiner.
		// Sequenced (own copy per link, sendSequenced stamps the header in
		// place) so a flap between the update and the ring's first dial
		// cannot lose the new address book.
		upd := &frame{Ctrl: ctrlPeerUpdate, Nodes: int32(id + 1), Peers: peers}
		n.sendSequenced(l, upd)
	}
	n.inbox.put(cluster.Message{From: id, To: n.id, Kind: cluster.KindPeerUp})
}

// Join attaches a late worker to a running master (the counterpart of
// ListenForJoins): listen on listenAddr for the ring's lazy peer dials,
// request admission at masterAddr, and return the joined node. The
// protocol-level welcome — ring membership, settings, the first example
// share — arrives from the master through the normal message surface
// afterwards. A fingerprint mismatch or a master without a join listener
// refuses the join.
func Join(masterAddr, listenAddr string, cfg Config) (*Node, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netcluster: listen %s: %w", listenAddr, err)
	}
	return JoinOn(ln, masterAddr, cfg)
}

// JoinOn is Join over an already-bound listener, letting the caller bind
// ":0" and publish the real address before the blocking join.
func JoinOn(ln net.Listener, masterAddr string, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	fail := func(err error) (*Node, error) {
		ln.Close()
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return fail(err)
	}
	conn, err := dialRetry(masterAddr, cfg.JoinTimeout)
	if err != nil {
		return fail(fmt.Errorf("netcluster: join master at %s: %w", masterAddr, err))
	}
	conn = cfg.wrapConn(conn)
	sess := linkSession{}
	if cfg.LinkGrace > 0 {
		sess = linkSession{sid: newSessionID(), dialer: true, addr: masterAddr}
	}
	req := &frame{Ctrl: ctrlJoinReq, Addr: ln.Addr().String(), Fingerprint: cfg.Fingerprint, Session: sess.sid}
	if err := writeFrame(conn, req); err != nil {
		conn.Close()
		return fail(fmt.Errorf("netcluster: join request: %w", err))
	}
	conn.SetReadDeadline(time.Now().Add(cfg.JoinTimeout))
	f, err := readFrame(conn, cfg.MaxFrameBytes)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return fail(fmt.Errorf("netcluster: waiting for join welcome: %w", err))
	}
	if f.Ctrl == ctrlWelcomeAck && f.Err != "" {
		conn.Close()
		return fail(fmt.Errorf("netcluster: master refused join: %s", f.Err))
	}
	if f.Ctrl != ctrlWelcome {
		conn.Close()
		return fail(fmt.Errorf("netcluster: unexpected join reply ctrl %d", f.Ctrl))
	}
	if f.Fingerprint != cfg.Fingerprint {
		conn.Close()
		return fail(fmt.Errorf("netcluster: master fingerprint %x does not match ours %x (different dataset or settings loaded)",
			f.Fingerprint, cfg.Fingerprint))
	}
	if f.Codec != protocolVersion {
		conn.Close()
		return fail(fmt.Errorf("netcluster: master offered protocol version byte %d, this build speaks %d — mixed-version cluster refused", f.Codec, protocolVersion))
	}
	n := &Node{
		id:      int(f.NodeID),
		size:    int(f.Nodes),
		cfg:     cfg,
		inbox:   newInbox(),
		links:   make(map[int]*link),
		pending: make(map[net.Conn]struct{}),
		peers:   f.Peers,
		ln:      ln,
		tr:      cluster.NewTraffic(int(f.Nodes)),
		done:    make(chan struct{}),
	}
	n.cfg.Model = f.Model.WithDefaults()
	if err := writeFrame(conn, &frame{Ctrl: ctrlWelcomeAck, From: f.NodeID, Fingerprint: cfg.Fingerprint, Codec: protocolVersion}); err != nil {
		conn.Close()
		return fail(fmt.Errorf("netcluster: join ack: %w", err))
	}
	if _, err := n.registerLink(0, conn, true, sess); err != nil {
		return fail(err)
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}
