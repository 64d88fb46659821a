package netcluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/cluster"
)

// Connect dials the given worker addresses and assembles the cluster: the
// caller becomes the master (node 0) and workerAddrs[k-1] becomes node k.
// Each worker is redialed until JoinTimeout so workers may still be
// starting. The welcome exchange assigns ids, distributes the address book
// and the cost model, and cross-checks dataset fingerprints.
func Connect(workerAddrs []string, cfg Config) (*Node, error) {
	return ConnectOn(nil, workerAddrs, cfg)
}

// ConnectOn is Connect with a pre-bound master listener: joins and worker
// rejoins are accepted on it from the start, and — crucially for
// crash-restart — its address becomes the master's own entry in the
// distributed address book, so every worker knows where to find a restarted
// master. A master run with checkpointing must use a stable listen address
// for the orphan-reconnect loop to work.
func ConnectOn(ln net.Listener, workerAddrs []string, cfg Config) (*Node, error) {
	p := len(workerAddrs)
	if p < 1 {
		return nil, fmt.Errorf("netcluster: no worker addresses")
	}
	masterAddr := ""
	if ln != nil {
		masterAddr = ln.Addr().String()
	}
	n, err := newNode(0, p+1, append([]string{masterAddr}, workerAddrs...), ln, cfg)
	if err != nil {
		return nil, err
	}
	for k := 1; k <= p; k++ {
		addr := workerAddrs[k-1]
		_, err := n.redial(addr, n.cfg.JoinTimeout, func(conn net.Conn) error {
			sess := n.newSession(addr)
			if err := n.offerWelcome(conn, k, p+1, n.peers, sess.sid); err != nil {
				return err
			}
			_, err := n.registerLink(k, conn, true, sess)
			return err
		})
		if err != nil {
			n.Abort() // a failed join is a failure, not an orderly departure
			return nil, fmt.Errorf("netcluster: worker %d at %s: %w", k, addr, err)
		}
	}
	if ln != nil {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// ServeOn waits on the bound listener for the master's welcome (learning
// this node's id, the cluster size, the address book and the cost model)
// and returns the joined node. Binding is the caller's, so it can bind
// ":0" and publish the real address before the blocking join. A
// fingerprint or version mismatch rejects the join on both sides. After
// joining, the listener keeps accepting the lazily-dialed worker-to-worker
// pipeline links.
func ServeOn(ln net.Listener, cfg Config) (*Node, error) {
	n, err := newNode(0, 0, nil, ln, cfg)
	if err != nil {
		return nil, err
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
	joinDeadline := time.Now().Add(n.cfg.JoinTimeout)
	if dl, ok := ln.(*net.TCPListener); ok {
		dl.SetDeadline(joinDeadline)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			n.Abort()
			return nil, fmt.Errorf("netcluster: waiting for master on %s: %w", ln.Addr(), err)
		}
		conn = n.cfg.wrapConn(conn)
		conn.SetReadDeadline(joinDeadline)
		f, ok := n.opening(conn)
		if !ok {
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
		if err := n.takeWelcome(conn, f); err != nil {
			conn.Close()
			n.Abort()
			return nil, fmt.Errorf("netcluster: joining on %s: %w", ln.Addr(), err)
		}
		n.install(f)
		if _, err := n.registerLink(0, conn, true, n.acceptedSession(f)); err != nil {
			n.Abort()
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

// Join attaches a late worker to a running master — one whose listener
// admits joins (ConnectOn, `p2mdie -listen`): listen on listenAddr for the
// ring's lazy peer dials, request admission at masterAddr, and return the
// joined node. The master assigns the next node id, broadcasts the grown
// address book to the existing workers, and its protocol layer learns of
// the newcomer through an in-band cluster.KindPeerUp event — the symmetric
// counterpart of the KindPeerDown failure surface. The protocol-level
// welcome — ring membership, settings, the first example share — arrives
// from the master through the normal message surface afterwards. A
// fingerprint or version mismatch refuses the join.
func Join(masterAddr, listenAddr string, cfg Config) (*Node, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netcluster: listen %s: %w", listenAddr, err)
	}
	n, err := newNode(0, 0, nil, ln, cfg)
	if err != nil {
		return nil, err
	}
	sess := n.newSession(masterAddr)
	req := &frame{Ctrl: ctrlJoinReq, Addr: ln.Addr().String(), Fingerprint: n.cfg.Fingerprint, Session: sess.sid}
	_, err = n.redial(masterAddr, n.cfg.JoinTimeout, func(conn net.Conn) error {
		f, err := n.ask(conn, req)
		if err == nil {
			err = n.takeWelcome(conn, f)
		}
		if err != nil {
			return err
		}
		n.install(f)
		_, err = n.registerLink(0, conn, true, sess)
		return err
	})
	if err != nil {
		n.Abort()
		return nil, fmt.Errorf("netcluster: join master at %s: %w", masterAddr, err)
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
		conn = n.cfg.wrapConn(conn)
		if !n.track(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.handshake(conn)
	}
}

// handshake reads an accepted connection's first frame and admits the
// peer, all under one JoinTimeout read deadline. The conn stays tracked
// for the whole admission, so shutdown cuts off a peer that stalls
// mid-handshake rather than waiting out the deadline.
func (n *Node) handshake(conn net.Conn) {
	defer n.wg.Done()
	defer n.untrack(conn)
	conn.SetReadDeadline(time.Now().Add(n.cfg.JoinTimeout))
	f, ok := n.opening(conn)
	if !ok {
		return
	}
	if n.isClosing() {
		conn.Close()
		return
	}
	n.acceptPeer(conn, f)
}

func (n *Node) acceptPeer(conn net.Conn, f *frame) {
	switch f.Ctrl {
	case ctrlLinkResume:
		n.acceptLinkResume(conn, f)
	case ctrlJoinReq, ctrlRejoinReq:
		if n.id != 0 {
			refuse(conn, ctrlWelcomeAck, fmt.Sprintf("node %d is a worker; only the master admits workers", n.id))
		} else if err := n.check(f); err != nil {
			refuse(conn, ctrlWelcomeAck, err.Error())
		} else if f.Ctrl == ctrlJoinReq {
			n.acceptJoin(conn, f)
		} else {
			n.acceptRejoin(conn, f)
		}
	case ctrlHello:
		n.mu.Lock()
		size := n.size
		n.mu.Unlock()
		if int(f.From) <= 0 || int(f.From) >= size || n.isDown(int(f.From)) {
			// Out of range, or declared dead: membership recovery has
			// already redistributed its work, so a late reconnect is refused.
			conn.Close()
			return
		}
		if err := n.check(f); err != nil {
			conn.Close()
			n.inbox.fail(fmt.Errorf("netcluster: node %d: peer %d: %w", n.id, f.From, err))
			return
		}
		// Receive-only: data to this peer goes out on a link we dial ourselves.
		n.registerLink(int(f.From), conn, false, n.acceptedSession(f))
	default:
		conn.Close()
	}
}

// acceptJoin admits one late worker on the master (see Join). Nothing is
// committed until the joiner has acknowledged the welcome, so a joiner
// that vanishes mid-handshake leaves no trace; joinMu serialises
// admissions so concurrent joiners get distinct ids.
func (n *Node) acceptJoin(conn net.Conn, f *frame) {
	if f.Addr == "" {
		refuse(conn, ctrlWelcomeAck, "join request carries no listen address")
		return
	}
	n.joinMu.Lock()
	defer n.joinMu.Unlock()
	n.mu.Lock()
	id := n.size
	peers := append(append([]string(nil), n.peers...), f.Addr)
	n.mu.Unlock()
	if n.offerWelcome(conn, id, id+1, peers, 0) != nil {
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

// The admission exchange. Initial join, late join and rejoin differ only
// in the request that opens them and in what the master commits after:
// the master's side of all three is offerWelcome, the worker's is
// takeWelcome, and every handshake frame passes check.

// offerWelcome welcomes a worker as node id of a size-node cluster with
// the address book peers (and, on an initial join with a grace window,
// the link session sid), then reads its ack under the conn's read
// deadline. A refused or mismatched ack is a refusal.
func (n *Node) offerWelcome(conn net.Conn, id, size int, peers []string, sid uint64) error {
	err := writeFrame(conn, &frame{
		Ctrl: ctrlWelcome, NodeID: int32(id), Nodes: int32(size), Peers: peers,
		Fingerprint: n.cfg.Fingerprint, Model: n.cfg.Model, Session: sid, Version: protocolVersion,
	})
	if err != nil {
		return err
	}
	ack, err := n.readHandshake(conn)
	switch {
	case err != nil:
		return err
	case ack.Ctrl != ctrlWelcomeAck:
		return fmt.Errorf("unexpected welcome reply ctrl %d", ack.Ctrl)
	case ack.Err != "":
		return refusal{fmt.Errorf("worker refused the welcome: %s", ack.Err)}
	}
	if err := n.check(ack); err != nil {
		return refusal{fmt.Errorf("worker's ack: %w", err)}
	}
	return nil
}

// takeWelcome answers the master's reply f to an admission request: a
// refusal comes back as one; a welcome that fails check is refused back
// with the reason (and the conn closed); any other welcome is acked. The
// caller commits what the welcome assigns.
func (n *Node) takeWelcome(conn net.Conn, f *frame) error {
	switch {
	case f.Ctrl == ctrlWelcomeAck && f.Err != "":
		return refusal{fmt.Errorf("master refused: %s", f.Err)}
	case f.Ctrl != ctrlWelcome:
		return fmt.Errorf("unexpected admission reply ctrl %d", f.Ctrl)
	}
	if err := n.check(f); err != nil {
		refuse(conn, ctrlWelcomeAck, err.Error())
		return refusal{fmt.Errorf("master's welcome: %w", err)}
	}
	return writeFrame(conn, &frame{Ctrl: ctrlWelcomeAck, From: f.NodeID, Fingerprint: n.cfg.Fingerprint, Version: protocolVersion})
}

// install adopts what a welcome assigns into a node ServeOn or Join built
// blank: its id, the cluster size and address book, the master's model.
func (n *Node) install(f *frame) {
	n.id = int(f.NodeID)
	n.cfg.Model = f.Model.WithDefaults()
	n.applyPeerUpdate(f)
}

// check is the one frame check every handshake runs: the peer's dataset
// fingerprint must be ours — payloads reference interned symbol indices,
// so a peer loaded with other data would corrupt the run — and a frame
// that carries the protocol-version byte (ctrlHello, ctrlWelcome,
// ctrlWelcomeAck) must carry this build's. Requests carry no version
// byte: the welcome exchange they open checks it both ways, and a link
// resume reopens a session admitted under it.
func (n *Node) check(f *frame) error {
	if f.Fingerprint != n.cfg.Fingerprint {
		return fmt.Errorf("fingerprint %x does not match this node's %x (different dataset or settings loaded)",
			f.Fingerprint, n.cfg.Fingerprint)
	}
	switch f.Ctrl {
	case ctrlHello, ctrlWelcome, ctrlWelcomeAck:
		if f.Version != protocolVersion {
			return fmt.Errorf("protocol version byte %d offered, this build speaks %d — mixed-version cluster refused",
				f.Version, protocolVersion)
		}
	}
	return nil
}

// refusal marks a handshake outcome no retry can change — the peer's
// refusal, or ours of its offer — so redial stops at it.
type refusal struct{ error }

// refuse answers a handshake request with an ack frame of kind ack
// carrying the reason, and hangs up.
func refuse(conn net.Conn, ack uint8, reason string) {
	writeFrame(conn, &frame{Ctrl: ack, Err: reason})
	conn.Close()
}

// ask writes a handshake request and reads the answer under the conn's
// read deadline.
func (n *Node) ask(conn net.Conn, req *frame) (*frame, error) {
	if err := writeFrame(conn, req); err != nil {
		return nil, err
	}
	return n.readHandshake(conn)
}

// readHandshake reads one handshake frame, at most maxHandshakeBytes long
// (no peer has proved its fingerprint yet). A frame that does not parse
// as this build's envelope comes from another protocol version — or from
// no peer at all — so it is a refusal, and no retry can change it.
func (n *Node) readHandshake(conn net.Conn) (*frame, error) {
	f, err := readFrame(conn, maxHandshakeBytes)
	if errors.As(err, new(envelopeError)) {
		return nil, refusal{err}
	}
	return f, err
}

// opening reads an accepted connection's first frame. On failure the
// conn is closed: an unparseable frame is refused back by name (the
// envelope version) first, any other failure closes it silently.
func (n *Node) opening(conn net.Conn) (*frame, bool) {
	f, err := n.readHandshake(conn)
	switch {
	case errors.As(err, new(refusal)):
		refuse(conn, ctrlWelcomeAck, err.Error())
	case err != nil:
		conn.Close()
	}
	return f, err == nil
}

// dial opens a TCP conn to addr through the ShapeConn hook.
func (n *Node) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return n.cfg.wrapConn(conn), nil
}

// redial is every retried admission — the master's initial dials, a
// joiner's, an orphan's rejoin, a suspended link's resume: dial addr and
// run try over the fresh conn until try succeeds, the window closes, try
// returns a refusal or the node closes. Each try's dial and handshake
// reads are bounded by min(JoinTimeout, the window's end), so a peer that
// accepts and never answers costs at most the window, and its conn is
// tracked so Close cuts it off. It returns the number of tries made.
func (n *Node) redial(addr string, window time.Duration, try func(net.Conn) error) (int, error) {
	end := time.Now().Add(window)
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(n.id)))
	err := errors.New("timed out")
	for tries := 0; ; tries++ {
		if tries > 0 {
			select {
			case <-n.done:
				return tries, cluster.ErrClosed
			case <-time.After(min(backoffDelay(tries-1, dialBackoffBase, dialBackoffCap, rng), time.Until(end))):
			}
		}
		stop := time.Now().Add(n.cfg.JoinTimeout)
		if end.Before(stop) {
			stop = end
		}
		if !time.Now().Before(stop) {
			return tries, err
		}
		conn, derr := n.dial(addr, time.Until(stop))
		if derr != nil {
			err = derr
			continue
		}
		if !n.track(conn) {
			conn.Close()
			return tries + 1, cluster.ErrClosed
		}
		conn.SetReadDeadline(stop)
		err = try(conn)
		n.untrack(conn)
		if err == nil {
			return tries + 1, nil
		}
		conn.Close()
		if errors.As(err, new(refusal)) || errors.Is(err, cluster.ErrClosed) {
			return tries + 1, err
		}
	}
}

// Redial pacing: start fast (a restarting peer is usually back quickly),
// back off exponentially so a long outage doesn't hammer the address, and
// jitter so a fleet of workers orphaned by the same master crash doesn't
// reconnect in lockstep.
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
