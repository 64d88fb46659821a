package netcluster

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/cluster"
)

// Resume rebuilds the master's transport endpoint after a crash-restart:
// bind the (stable) listen address, install the checkpointed cluster size
// and address book, and start accepting worker rejoins. The node begins
// with no live links — each orphaned worker re-establishes its master link
// through RejoinMaster, surfacing here as a ctrlRejoinReq handshake and an
// in-band cluster.KindPeerUp event the resume protocol collects.
func Resume(addr string, size int, peers []string, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if size < 2 {
		return nil, fmt.Errorf("netcluster: resume with cluster size %d", size)
	}
	if len(peers) < size {
		return nil, fmt.Errorf("netcluster: resume address book has %d entries for size %d", len(peers), size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcluster: resume listen %s: %w", addr, err)
	}
	book := append([]string(nil), peers...)
	book[0] = ln.Addr().String()
	n := &Node{
		id:      0,
		size:    size,
		cfg:     cfg,
		inbox:   newInbox(),
		links:   make(map[int]*link),
		peers:   book,
		ln:      ln,
		tr:      cluster.NewTraffic(size),
		pending: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// acceptRejoin re-admits a worker that already holds a node id (a worker
// orphaned by a master crash, reconnecting to a Resume'd master). The
// handshake mirrors acceptJoin — welcome, ack, commit — but assigns no new
// id and grows nothing; it only replaces the dead master↔worker link and
// refreshes the worker's address-book entry. Refusals are written back with
// a reason so the worker can tell a permanent rejection (wrong fingerprint,
// excluded from membership) from a master that simply isn't up yet.
func (n *Node) acceptRejoin(conn net.Conn, f *frame) {
	reject := func(reason string) {
		writeFrame(conn, &frame{Ctrl: ctrlWelcomeAck, Err: reason})
		conn.Close()
	}
	if f.Fingerprint != n.cfg.Fingerprint {
		reject(fmt.Sprintf("fingerprint %x does not match master %x (different dataset or settings loaded)",
			f.Fingerprint, n.cfg.Fingerprint))
		return
	}
	id := int(f.From)
	n.joinMu.Lock() // serialise with joins and concurrent rejoins
	defer n.joinMu.Unlock()
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		conn.Close()
		return
	}
	if id <= 0 || id >= n.size {
		n.mu.Unlock()
		reject(fmt.Sprintf("unknown node id %d (cluster size %d)", id, n.size))
		return
	}
	if n.down[id] {
		// Membership recovery has already redistributed this worker's
		// share; re-admitting it with stale state would corrupt the run.
		// (If it still wants in, it can come back through the join path as
		// a fresh worker.)
		n.mu.Unlock()
		reject(fmt.Sprintf("node %d was declared dead; rejoin refused", id))
		return
	}
	stale := n.links[id]
	if stale != nil {
		delete(n.links, id) // the worker knows its side is dead; replace
	}
	n.mu.Unlock()
	if stale != nil {
		stale.close()
	}

	n.mu.Lock()
	welcome := &frame{
		Ctrl:        ctrlWelcome,
		NodeID:      int32(id),
		Nodes:       int32(n.size),
		Peers:       append([]string(nil), n.peers...),
		Fingerprint: n.cfg.Fingerprint,
		Model:       n.cfg.Model,
		Codec:       protocolVersion,
	}
	n.mu.Unlock()
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
	if f.Addr != "" {
		n.mu.Lock()
		n.peers[id] = f.Addr
		n.mu.Unlock()
	}
	if _, err := n.registerLink(id, conn, true, n.acceptedSession(f)); err != nil {
		conn.Close()
		return
	}
	n.inbox.put(cluster.Message{From: id, To: n.id, Kind: cluster.KindPeerUp})
}

// RejoinMaster re-establishes this worker's master link after the master
// was declared dead: dial the master's address-book entry with exponential
// backoff + jitter until timeout, run the fingerprint-checked rejoin
// handshake, and swap the fresh link in (clearing the master's down state
// so a later master death is detected all over again). It returns the
// number of dial attempts made. A rejection by a live master — wrong
// fingerprint, or this worker already excluded from membership — is
// permanent and returns immediately; connection errors keep retrying, since
// a restarting master is exactly a temporarily unreachable address.
func (n *Node) RejoinMaster(timeout time.Duration) (int, error) {
	n.mu.Lock()
	addr := ""
	if len(n.peers) > 0 {
		addr = n.peers[0]
	}
	n.mu.Unlock()
	if addr == "" {
		return 0, fmt.Errorf("netcluster: node %d: master address unknown (master did not listen); cannot rejoin", n.id)
	}
	deadline := time.Now().Add(timeout)
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(n.id)))
	var lastErr error
	for attempt := 0; ; attempt++ {
		if n.isClosing() {
			return attempt, cluster.ErrClosed
		}
		if attempt > 0 {
			d := backoffDelay(attempt-1, dialBackoffBase, dialBackoffCap, rng)
			if until := time.Until(deadline); d > until {
				d = until
			}
			time.Sleep(d)
		}
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = fmt.Errorf("timed out")
			}
			return attempt, fmt.Errorf("netcluster: node %d: rejoin master at %s: %w", n.id, addr, lastErr)
		}
		perm, err := n.tryRejoin(addr)
		if err == nil {
			return attempt + 1, nil
		}
		if perm {
			return attempt + 1, fmt.Errorf("netcluster: node %d: rejoin master at %s: %w", n.id, addr, err)
		}
		lastErr = err
	}
}

// tryRejoin runs one rejoin handshake attempt. The returned bool marks a
// permanent refusal (retrying cannot help).
func (n *Node) tryRejoin(addr string) (bool, error) {
	conn, err := net.DialTimeout("tcp", addr, dialBackoffCap)
	if err != nil {
		return false, err
	}
	conn = n.cfg.wrapConn(conn)
	sess := n.newSession(addr)
	req := &frame{Ctrl: ctrlRejoinReq, From: int32(n.id), Addr: n.Addr(), Fingerprint: n.cfg.Fingerprint, Session: sess.sid}
	if err := writeFrame(conn, req); err != nil {
		conn.Close()
		return false, err
	}
	conn.SetReadDeadline(time.Now().Add(n.cfg.JoinTimeout))
	f, err := readFrame(conn, n.cfg.MaxFrameBytes)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return false, err
	}
	if f.Ctrl == ctrlWelcomeAck && f.Err != "" {
		conn.Close()
		return true, fmt.Errorf("master refused rejoin: %s", f.Err)
	}
	if f.Ctrl != ctrlWelcome {
		conn.Close()
		return false, fmt.Errorf("unexpected rejoin reply ctrl %d", f.Ctrl)
	}
	if f.Fingerprint != n.cfg.Fingerprint {
		conn.Close()
		return true, fmt.Errorf("master fingerprint %x does not match ours %x", f.Fingerprint, n.cfg.Fingerprint)
	}
	if f.Codec != protocolVersion {
		conn.Close()
		return true, fmt.Errorf("restarted master offered protocol version byte %d, this build speaks %d — mixed-version cluster refused", f.Codec, protocolVersion)
	}
	if err := writeFrame(conn, &frame{Ctrl: ctrlWelcomeAck, From: int32(n.id), Fingerprint: n.cfg.Fingerprint, Codec: protocolVersion}); err != nil {
		conn.Close()
		return false, err
	}

	// Commit: clear the master's dead state and swap the new link in. The
	// down flag must clear so sends flow again and so the *next* master
	// death raises a fresh KindPeerDown.
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		conn.Close()
		return true, cluster.ErrClosed
	}
	delete(n.down, 0)
	delete(n.departed, 0)
	if old := n.links[0]; old != nil {
		delete(n.links, 0)
		defer old.close()
	}
	if int(f.Nodes) > n.size {
		n.size = int(f.Nodes)
		n.peers = f.Peers
	}
	n.mu.Unlock()
	n.trMu.Lock()
	n.tr.Grow(int(f.Nodes))
	n.trMu.Unlock()
	if _, err := n.registerLink(0, conn, true, sess); err != nil {
		conn.Close()
		return true, err
	}
	return false, nil
}

// Linked reports whether this node currently holds a live send link to
// peer. The resume protocol uses it to tell which expected members still
// have to rejoin; transports without explicit links (the simulated machine)
// simply don't implement it.
func (n *Node) Linked(peer int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[peer]
	return ok && !l.isClosed()
}

// AddressBook returns a copy of the cluster address book and the current
// cluster size — the membership a checkpoint must persist for workers to
// find a restarted master (and for it to find them).
func (n *Node) AddressBook() ([]string, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.peers...), n.size
}
