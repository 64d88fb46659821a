package netcluster

import (
	"fmt"
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
	n, err := newNode(0, size, book, ln, cfg)
	if err != nil {
		return nil, err
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// acceptRejoin re-admits a worker that already holds a node id (a worker
// orphaned by a master crash, reconnecting to a Resume'd master). The
// exchange is acceptJoin's — welcome, ack, commit — but assigns no new id
// and grows nothing; it only replaces the dead master↔worker link and
// refreshes the worker's address-book entry. Refusals are written back with
// a reason so the worker can tell a permanent rejection (wrong fingerprint,
// excluded from membership) from a master that simply isn't up yet.
func (n *Node) acceptRejoin(conn net.Conn, f *frame) {
	id := int(f.From)
	n.joinMu.Lock() // serialise with joins and concurrent rejoins
	defer n.joinMu.Unlock()
	n.mu.Lock()
	reason := ""
	switch {
	case id <= 0 || id >= n.size:
		reason = fmt.Sprintf("unknown node id %d (cluster size %d)", id, n.size)
	case n.down[id]:
		// Membership recovery has already redistributed this worker's
		// share; re-admitting it with stale state would corrupt the run.
		// (If it still wants in, it can come back through the join path as
		// a fresh worker.)
		reason = fmt.Sprintf("node %d was declared dead; rejoin refused", id)
	}
	if reason != "" {
		n.mu.Unlock()
		refuse(conn, ctrlWelcomeAck, reason)
		return
	}
	stale := n.links[id]
	delete(n.links, id) // the worker knows its side is dead; replace
	size, peers := n.size, append([]string(nil), n.peers...)
	n.mu.Unlock()
	if stale != nil {
		stale.close()
	}
	if n.offerWelcome(conn, id, size, peers, 0) != nil {
		conn.Close()
		return
	}
	if f.Addr != "" {
		n.mu.Lock()
		n.peers[id] = f.Addr
		n.mu.Unlock()
	}
	if _, err := n.registerLink(id, conn, true, n.acceptedSession(f)); err != nil {
		return
	}
	n.inbox.Put(cluster.Message{From: id, To: n.id, Kind: cluster.KindPeerUp})
}

// RejoinMaster re-establishes this worker's master link after the master
// was declared dead: redial the master's address-book entry for up to
// timeout, run the rejoin handshake, and swap the fresh link in (clearing
// the master's down state so a later master death is detected all over
// again). It returns the number of tries made. A refusal — by a live
// master (wrong fingerprint, this worker already excluded from
// membership) or of one (wrong fingerprint or version) — is permanent and
// returns at once; anything else is retried, since a restarting master is
// exactly a temporarily unreachable address.
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
	tries, err := n.redial(addr, timeout, nil, func(conn net.Conn) error { return n.tryRejoin(conn, addr) })
	if err != nil {
		return tries, fmt.Errorf("netcluster: node %d: rejoin master at %s: %w", n.id, addr, err)
	}
	return tries, nil
}

// tryRejoin runs one rejoin handshake over a fresh conn to the master at
// addr and commits it: clear the master's dead state and swap the new link
// in. The down flag must clear so sends flow again and so the *next*
// master death raises a fresh KindPeerDown.
func (n *Node) tryRejoin(conn net.Conn, addr string) error {
	sess := n.newSession(addr)
	f, err := n.ask(conn, &frame{Ctrl: ctrlRejoinReq, From: int32(n.id), Addr: n.Addr(), Fingerprint: n.cfg.Fingerprint, Session: sess.sid})
	if err == nil {
		err = n.takeWelcome(conn, f)
	}
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		return cluster.ErrClosed
	}
	delete(n.down, 0)
	delete(n.departed, 0)
	old := n.links[0]
	delete(n.links, 0)
	n.mu.Unlock()
	if old != nil {
		old.close()
	}
	n.applyPeerUpdate(f)
	_, err = n.registerLink(0, conn, true, sess)
	return err
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
