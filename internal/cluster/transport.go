package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// ErrClosed is returned by ReceiveCtx when the transport has been shut down
// and no pending message remains. Node loops treat it as a clean exit.
var ErrClosed = errors.New("cluster: transport closed")

// ErrPeerDown is returned (wrapped) by Send/Broadcast when the destination
// has been declared dead. Protocol code treats it as "message dropped":
// the corresponding KindPeerDown event carries the failure.
var ErrPeerDown = errors.New("cluster: peer down")

// ErrKilled is the Cause of the KindPeerDown events the simulated
// machine's Kill delivers.
var ErrKilled = errors.New("cluster: node killed")

// KindPeerDown is the kind of the synthetic membership event a transport
// delivers when it declares a peer dead: the Message's From field names
// the dead peer, its Cause says what the transport detected, and the
// payload is empty. The kind is negative so it can never collide with an
// application protocol kind (those are small non-negative constants).
const KindPeerDown = -1

// KindPeerUp is the join-side counterpart of KindPeerDown: a synthetic
// membership event delivered when a new peer joins the cluster mid-run. The Message's From field names the joiner and
// the payload is empty. The simulated machine emits it from Network.Spawn;
// netcluster emits it on the master when a late worker completes the join
// handshake. Protocol code that cannot use joiners simply ignores it.
const KindPeerUp = -2

// Transport is one node's port onto a message-passing substrate: the
// communication model of the paper's §2.2 (non-blocking send/broadcast,
// blocking receive) plus the work/clock accounting that makes runs
// quantitatively comparable across substrates.
//
// Two implementations exist: *cluster.Node (the in-process simulated
// machine, one goroutine per node, virtual clocks) and *netcluster.Node
// (real TCP between processes, same virtual-clock and per-link byte
// accounting). The p²-mdie protocol in internal/core runs unchanged on
// either; the coverage-farming baseline in internal/parcov runs on the
// simulated machine only.
type Transport interface {
	// ID is this node's id: 0 is the master, workers are 1..p.
	ID() int
	// Size is the total number of nodes, p+1.
	Size() int
	// Send encodes v (EncodePayload) and delivers it to node to without blocking.
	Send(to int, kind int, v any) error
	// Broadcast sends v to every node in targets (encoded once).
	Broadcast(targets []int, kind int, v any) error
	// ReceiveCtx blocks until a message is available, the context is done,
	// or the transport closes. It returns ErrClosed after an orderly
	// shutdown, the context error on expiry, and a transport-specific
	// error for a fatal handshake or framing fault. A crashed peer is not
	// an error: it arrives in-band as Message{Kind: KindPeerDown, From:
	// peer, Cause: what was detected}, sends to it fail with ErrPeerDown
	// from then on, and the transport stays usable towards the survivors.
	ReceiveCtx(ctx context.Context) (Message, error)
	// Compute advances the node's virtual clock by units of work (SLD
	// inferences) under the transport's cost model.
	Compute(units int64)
	// Clock returns the node's current virtual time.
	Clock() VTime
	// Members returns the ids of the peers currently believed alive
	// (this node excluded), in ascending order. On a transport that has
	// detected no failures this is every other node.
	Members() []int
	// NotifyFailures has no effect: every transport reports peer deaths
	// in-band (see ReceiveCtx). It remains only because the bench module's
	// TimedTransport forwards it (ROADMAP item 3(j) deletes both).
	NotifyFailures(on bool)
}

// TrafficReporter is implemented by transports that keep per-link traffic
// counters (the Table-4 accounting). For the simulated Network the report
// covers the whole cluster; a netcluster node reports its own outgoing
// links, and the master assembles the global table from workers' final
// reports.
type TrafficReporter interface {
	Traffic() Traffic
}

// Link is one directed edge of a traffic table.
type Link struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Bytes int64 `json:"bytes"`
	Msgs  int64 `json:"msgs"`
}

// Traffic is a per-link snapshot of protocol traffic over an n-node
// cluster. Counts cover protocol payload bytes only (the encoded
// message bodies), exactly as the simulated Network counts them; transport
// framing and heartbeats are excluded so both transports report through
// the same accounting.
type Traffic struct {
	N     int     `json:"nodes"`
	Bytes []int64 `json:"-"` // from*N + to
	Msgs  []int64 `json:"-"`
}

// NewTraffic returns an empty table over n nodes.
func NewTraffic(n int) Traffic {
	return Traffic{N: n, Bytes: make([]int64, n*n), Msgs: make([]int64, n*n)}
}

// Add records msgs messages totalling bytes payload bytes on link from→to.
func (t *Traffic) Add(from, to int, bytes, msgs int64) {
	t.Bytes[from*t.N+to] += bytes
	t.Msgs[from*t.N+to] += msgs
}

// Grow re-indexes the table to cover n nodes (no-op when n ≤ t.N). Link
// counters keep their (from, to) identity as the node count rises, which is
// what lets a run's accounting survive workers joining mid-run.
func (t *Traffic) Grow(n int) {
	if n <= t.N {
		return
	}
	nb := make([]int64, n*n)
	nm := make([]int64, n*n)
	for from := 0; from < t.N; from++ {
		copy(nb[from*n:from*n+t.N], t.Bytes[from*t.N:(from+1)*t.N])
		copy(nm[from*n:from*n+t.N], t.Msgs[from*t.N:(from+1)*t.N])
	}
	t.N, t.Bytes, t.Msgs = n, nb, nm
}

// Merge accumulates another table into t, growing t when o covers more
// nodes. Tables of different sizes merge by link identity, so reports from
// nodes that joined (or finished) at different cluster sizes still fold
// into one global table.
func (t *Traffic) Merge(o Traffic) {
	t.Grow(o.N)
	for from := 0; from < o.N; from++ {
		for to := 0; to < o.N; to++ {
			i := from*o.N + to
			if o.Bytes[i] != 0 || o.Msgs[i] != 0 {
				t.Add(from, to, o.Bytes[i], o.Msgs[i])
			}
		}
	}
}

// LinkBytes returns payload bytes sent from node a to node b.
func (t Traffic) LinkBytes(a, b int) int64 { return t.Bytes[a*t.N+b] }

// LinkMsgs returns messages sent from node a to node b.
func (t Traffic) LinkMsgs(a, b int) int64 { return t.Msgs[a*t.N+b] }

// TotalBytes sums payload bytes over all links.
func (t Traffic) TotalBytes() int64 {
	var s int64
	for _, b := range t.Bytes {
		s += b
	}
	return s
}

// TotalMsgs sums messages over all links.
func (t Traffic) TotalMsgs() int64 {
	var s int64
	for _, m := range t.Msgs {
		s += m
	}
	return s
}

// Links returns the non-empty directed links in (from, to) order — the
// JSON-friendly form dumped by `p2mdie -traffic json`.
func (t Traffic) Links() []Link {
	var out []Link
	for from := 0; from < t.N; from++ {
		for to := 0; to < t.N; to++ {
			i := from*t.N + to
			if t.Msgs[i] != 0 || t.Bytes[i] != 0 {
				out = append(out, Link{From: from, To: to, Bytes: t.Bytes[i], Msgs: t.Msgs[i]})
			}
		}
	}
	return out
}

// String renders the table, one non-empty link per line.
func (t Traffic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "link     msgs      bytes\n")
	for _, l := range t.Links() {
		fmt.Fprintf(&b, "%d->%d %8d %10d\n", l.From, l.To, l.Msgs, l.Bytes)
	}
	fmt.Fprintf(&b, "total %7d %10d\n", t.TotalMsgs(), t.TotalBytes())
	return b.String()
}
