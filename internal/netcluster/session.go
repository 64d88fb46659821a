package netcluster

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Link-resilience layer: sequenced link sessions with a reconnect grace
// window (Config.LinkGrace). A read, write or heartbeat failure on a link
// no longer escalates straight to peerDown; instead the link is suspended
// — its outbound frames keep accumulating in the retained ring — while
// the side that originally dialed the connection re-dials with backoff.
// The ctrlLinkResume handshake exchanges the two ends' last-delivered
// sequences, both replay their retained tails, and the protocol layer
// above (core) observes nothing at all: exactly-once in-order
// delivery holds across the flap. Only a grace window that expires
// without a successful resume escalates to the PR 4/6 failure machinery
// (KindPeerDown, recovery, orphan regime), which remains the backstop for
// genuinely dead peers.

// sessionCounter seeds newSessionID; the time component makes ids from
// different node incarnations distinct, which is all correctness needs
// (a resumed session must never match a session of a crashed-and-
// restarted process that happens to reuse the peer id).
var sessionCounter atomic.Uint64

func newSessionID() uint64 {
	return uint64(time.Now().UnixNano())<<16 | (sessionCounter.Add(1) & 0xFFFF)
}

// graceOn reports whether the reconnect grace window is enabled.
func (n *Node) graceOn() bool { return n.cfg.LinkGrace > 0 }

// newSession builds the dialer-side session identity for a fresh link:
// a generated session id when the grace window is on, the zero session
// (legacy behavior, nothing new on the wire) when off.
func (n *Node) newSession(addr string) linkSession {
	if !n.graceOn() {
		return linkSession{}
	}
	return linkSession{sid: newSessionID(), dialer: true, addr: addr}
}

// acceptedSession builds the acceptor-side identity from a handshake
// frame's Session field.
func (n *Node) acceptedSession(f *frame) linkSession {
	return linkSession{sid: f.Session}
}

// LinkStats returns this node's transient-fault counters: how many times
// a link was suspended into a reconnect grace window, and how many
// retained frames were replayed by successful resumes.
func (n *Node) LinkStats() (flaps, replayed int64) {
	return n.linkFlaps.Load(), n.replayedFrames.Load()
}

// LinkGrace returns the configured reconnect grace window (zero =
// disabled). core probes this to validate it against RecvTimeout.
func (n *Node) LinkGrace() time.Duration { return n.cfg.LinkGrace }

// DropLinks abruptly severs every live connection without touching link
// state — the observable effect of a transient network partition. With a
// grace window configured the links suspend and resume transparently;
// without one, every link failure escalates exactly as a real blackout
// would. Testing aid for the flap chaos schedules (`p2mdie -flapat`).
func (n *Node) DropLinks() {
	n.mu.Lock()
	links := append([]*link(nil), n.all...)
	n.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		conn := l.conn
		live := !l.closed && !l.suspended
		l.mu.Unlock()
		if live {
			conn.Close()
		}
	}
}

// sendSequenced ships a data-bearing frame over a session link: the
// frame is stamped with the session id, the next send sequence and the
// piggybacked cumulative ack, retained until acked, and written to the
// live conn — or merely queued while the link is suspended, to be
// replayed by the resume handshake. With the grace window off this is
// exactly the legacy l.write. A non-nil error is a permanent link
// failure the caller must escalate.
func (n *Node) sendSequenced(l *link, f *frame) error {
	if l.sess.sid == 0 {
		return l.write(f)
	}
	l.wmu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wmu.Unlock()
		return fmt.Errorf("netcluster: node %d: link to node %d closed", n.id, l.peer)
	}
	l.sendSeq++
	f.Session = l.sess.sid
	f.Seq = l.sendSeq
	f.Ack = l.recvSeq
	l.retained = append(l.retained, f)
	overflow := len(l.retained) > maxRetainedFrames
	suspended := l.suspended
	conn := l.conn
	l.mu.Unlock()
	if overflow {
		l.wmu.Unlock()
		return fmt.Errorf("netcluster: node %d: link to node %d retains %d unacked frames, over the bound of %d — peer not acking",
			n.id, l.peer, maxRetainedFrames+1, maxRetainedFrames)
	}
	if suspended {
		l.wmu.Unlock()
		return nil // queued; the resume replay delivers it
	}
	if l.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(l.writeTimeout))
	}
	err := writeFrame(conn, f)
	if l.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	l.wmu.Unlock()
	if err != nil {
		// The frame is retained: suspend and let the replay deliver it.
		// Only a refused suspension (node closing, peer already down,
		// grace exhausted elsewhere) leaves a failure for the caller.
		if n.suspendLink(l, conn) {
			return nil
		}
		if n.isClosing() || l.isClosed() {
			return nil
		}
		return err
	}
	return nil
}

// linkTrouble routes a detected link failure: absorbed into a suspension
// when the grace window applies, escalated through the historical
// linkFailed path otherwise. Returns true when absorbed.
func (n *Node) linkTrouble(l *link, conn net.Conn, err error) bool {
	if l.sess.sid == 0 || !n.graceOn() {
		n.linkFailed(l.peer, err)
		return false
	}
	return n.suspendLink(l, conn)
}

// suspendLink moves a link into the reconnect grace window: the dead
// conn closes, state and the retained ring survive, and either the
// dialer's reconnect loop or the acceptor's grace watcher takes over.
// Idempotent per conn incarnation: late reports against an already
// replaced or suspended conn are absorbed silently.
func (n *Node) suspendLink(l *link, conn net.Conn) bool {
	if n.isClosing() || n.isDown(l.peer) {
		return false
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	if l.suspended || l.conn != conn {
		l.mu.Unlock()
		return true // someone already handled this incarnation
	}
	l.suspended = true
	l.flap++
	flap := l.flap
	l.mu.Unlock()
	conn.Close()
	n.linkFlaps.Add(1)
	n.wg.Add(1)
	if l.sess.dialer {
		go n.reconnectLoop(l, flap)
	} else {
		go n.graceWatch(l, flap)
	}
	return true
}

// escalateLink ends a grace window that failed to heal: the link closes
// for good and the failure surfaces through the historical path —
// KindPeerDown under NotifyFailures, a poisoned inbox otherwise.
func (n *Node) escalateLink(l *link, err error) {
	l.close()
	if n.isClosing() || n.isDown(l.peer) {
		return
	}
	n.linkFailed(l.peer, err)
}

// reconnectLoop is the dialer side of a suspended link: redial the peer's
// listen address until the resume handshake succeeds or the grace window
// closes, and escalate unless the suspension ended some other way (the
// link closed, the node shut down).
func (n *Node) reconnectLoop(l *link, flap int) {
	defer n.wg.Done()
	_, err := n.redial(l.sess.addr, n.cfg.LinkGrace, func(conn net.Conn) error {
		return n.tryLinkResume(l, flap, conn)
	})
	if err != nil && n.stillSuspended(l, flap) {
		n.escalateLink(l, fmt.Errorf("netcluster: node %d: link to node %d not resumed within LinkGrace %s: %w",
			n.id, l.peer, n.cfg.LinkGrace, err))
	}
}

func (n *Node) stillSuspended(l *link, flap int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.suspended && l.flap == flap && !l.closed
}

// graceWatch is the acceptor side of a suspended link: it cannot re-dial
// (the peer holds the listen address), so it waits out the grace window
// and escalates if the dialer never resumed this suspension.
func (n *Node) graceWatch(l *link, flap int) {
	defer n.wg.Done()
	select {
	case <-n.done:
		return
	case <-time.After(n.cfg.LinkGrace):
	}
	if n.stillSuspended(l, flap) {
		n.escalateLink(l, fmt.Errorf("netcluster: node %d: link to node %d did not resume within LinkGrace %s",
			n.id, l.peer, n.cfg.LinkGrace))
	}
}

// tryLinkResume runs one dialer-side resume handshake over a fresh conn
// and, on success, commits it (resumeLink). A suspension that has already
// ended, or the peer's refusal, is a refusal.
func (n *Node) tryLinkResume(l *link, flap int, conn net.Conn) error {
	if !n.stillSuspended(l, flap) {
		return refusal{fmt.Errorf("link to node %d no longer suspended", l.peer)}
	}
	f, err := n.ask(conn, &frame{
		Ctrl: ctrlLinkResume, From: int32(n.id),
		Session: l.sess.sid, Ack: l.loadRecvSeq(), Fingerprint: n.cfg.Fingerprint,
	})
	switch {
	case err != nil:
		return err
	case f.Ctrl != ctrlLinkResumeAck:
		return fmt.Errorf("unexpected resume reply ctrl %d", f.Ctrl)
	case f.Err != "":
		return refusal{fmt.Errorf("peer refused link resume: %s", f.Err)}
	}
	return n.resumeLink(l, flap, conn, f.Ack)
}

// resumeLink commits a completed resume handshake on either side: under
// the write mutex (so queued senders line up behind the replay) the
// fresh conn is swapped in, retained frames the peer already delivered
// are pruned, the rest are replayed in sequence order, and fresh
// read/heartbeat loops start. flap >= 0 requires the suspension
// incarnation to match (the dialer side); -1 skips the check (the
// acceptor side, which may be resuming a suspension it created itself an
// instant ago in acceptLinkResume).
func (n *Node) resumeLink(l *link, flap int, conn net.Conn, peerAck uint64) error {
	l.wmu.Lock()
	l.mu.Lock()
	if l.closed || !l.suspended || (flap >= 0 && l.flap != flap) {
		l.mu.Unlock()
		l.wmu.Unlock()
		return fmt.Errorf("link no longer awaiting this resume")
	}
	l.pruneLocked(peerAck)
	replay := append([]*frame(nil), l.retained...)
	l.conn = conn
	l.suspended = false
	l.lastSeen = time.Now()
	ack := l.recvSeq
	l.mu.Unlock()
	for _, f := range replay {
		f.Ack = ack
		if l.writeTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(l.writeTimeout))
		}
		err := writeFrame(conn, f)
		if l.writeTimeout > 0 {
			conn.SetWriteDeadline(time.Time{})
		}
		if err != nil {
			// The fresh conn died mid-replay: re-suspend (same flap, so a
			// dialer's reconnect loop keeps driving) and report transient.
			l.mu.Lock()
			l.suspended = true
			l.mu.Unlock()
			l.wmu.Unlock()
			return fmt.Errorf("replay to node %d: %w", l.peer, err)
		}
	}
	l.wmu.Unlock()
	n.replayedFrames.Add(int64(len(replay)))
	n.startLinkLoops(l, conn)
	return nil
}

// findSession locates the live link matching a resume request.
func (n *Node) findSession(peer int, sid uint64) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.all {
		if l.peer == peer && l.sess.sid == sid && !l.isClosed() {
			return l
		}
	}
	return nil
}

// acceptLinkResume is the acceptor side of the resume handshake (the
// peer re-dialed our listener with ctrlLinkResume). An unknown session
// is refused permanently — the dialer escalates immediately instead of
// burning its grace window on a peer that has forgotten the link (e.g. a
// crash-restarted process, which must go through the rejoin path).
func (n *Node) acceptLinkResume(conn net.Conn, f *frame) {
	peer := int(f.From)
	l := n.findSession(peer, f.Session)
	reason := ""
	switch err := n.check(f); {
	case !n.graceOn():
		reason = "link grace window disabled on this node"
	case err != nil:
		reason = err.Error()
	case n.isDown(peer):
		reason = fmt.Sprintf("node %d was declared dead", peer)
	case l == nil || f.Session == 0:
		reason = fmt.Sprintf("unknown link session %x from node %d", f.Session, peer)
	}
	if reason != "" {
		refuse(conn, ctrlLinkResumeAck, reason)
		return
	}
	// If we have not yet noticed the drop ourselves, suspend the stale
	// conn now; its loops see a conn mismatch and exit quietly.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		refuse(conn, ctrlLinkResumeAck, "link closed")
		return
	}
	if !l.suspended {
		old := l.conn
		l.suspended = true
		l.flap++
		flap := l.flap
		l.mu.Unlock()
		old.Close()
		n.linkFlaps.Add(1)
		// Arm a watcher in case the commit below fails and the dialer
		// never comes back: the suspension must still expire into the
		// ordinary failure path rather than hang the protocol.
		n.wg.Add(1)
		go n.graceWatch(l, flap)
	} else {
		l.mu.Unlock()
	}
	ack := &frame{
		Ctrl: ctrlLinkResumeAck, From: int32(n.id),
		Session: l.sess.sid, Ack: l.loadRecvSeq(), Fingerprint: n.cfg.Fingerprint,
	}
	if err := writeFrame(conn, ack); err != nil {
		conn.Close()
		return // still suspended; the dialer retries or grace expires
	}
	if err := n.resumeLink(l, -1, conn, f.Ack); err != nil {
		conn.Close()
	}
}
