// Package cluster simulates a distributed-memory message-passing machine
// (the paper's LAM/MPI Beowulf cluster) inside one process: one goroutine
// per node, unbounded inboxes, non-blocking send/broadcast and blocking
// receive — exactly the communication model of the paper's §2.2.
//
// Two things make the simulation quantitative rather than just structural:
//
//   - every payload is serialised (the compact codec of internal/wire),
//     so per-message and per-link byte counts are real (Table 4
//     reproduces from these), and the receiver decodes its own deep
//     copy, giving MPI-like value isolation;
//
//   - each node carries a virtual clock in the spirit of Lamport: Compute
//     advances it by measured work (SLD inferences × a calibrated cost),
//     and ReceiveCtx advances it to the message arrival time, which is the
//     sender's clock at send plus latency plus bytes/bandwidth. The maximum
//     clock at termination is the simulated makespan of the run on a
//     cluster with one CPU per node, independent of how many host cores
//     actually ran the goroutines.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// VTime is virtual time in nanoseconds since the start of the run.
type VTime int64

// Seconds converts a virtual time to seconds.
func (t VTime) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts a virtual time to a time.Duration.
func (t VTime) Duration() time.Duration { return time.Duration(t) }

// CostModel sets the simulated hardware constants.
type CostModel struct {
	// Latency is the fixed per-message cost (interconnect + MPI stack).
	Latency time.Duration
	// BandwidthBps is the link bandwidth in bytes per second.
	BandwidthBps float64
	// NsPerInference converts one SLD inference into virtual nanoseconds.
	NsPerInference float64
}

// DefaultCostModel approximates the paper's 2005-era Beowulf hardware:
// 100 Mbit/s switched Ethernet (~12.5 MB/s, ~120 µs end-to-end latency for
// LAM/MPI) and a Prolog engine doing roughly one resolution per
// microsecond.
var DefaultCostModel = CostModel{
	Latency:        120 * time.Microsecond,
	BandwidthBps:   12.5e6,
	NsPerInference: 1000,
}

func (c CostModel) withDefaults() CostModel {
	if c.Latency <= 0 {
		c.Latency = DefaultCostModel.Latency
	}
	if c.BandwidthBps <= 0 {
		c.BandwidthBps = DefaultCostModel.BandwidthBps
	}
	if c.NsPerInference <= 0 {
		c.NsPerInference = DefaultCostModel.NsPerInference
	}
	return c
}

// WithDefaults returns the model with zero fields replaced by defaults.
func (c CostModel) WithDefaults() CostModel { return c.withDefaults() }

// TransferTime returns the virtual duration to move n payload bytes — the
// fixed latency plus the bandwidth term. Exported so other transports
// charge message delivery identically to the simulation.
func (c CostModel) TransferTime(n int) VTime { return c.transferTime(n) }

// transferTime returns the virtual duration to move n payload bytes.
func (c CostModel) transferTime(n int) VTime {
	return VTime(c.Latency) + VTime(float64(n)/c.BandwidthBps*1e9)
}

// Message is one delivered communication.
type Message struct {
	From, To int
	// Kind is an application-level tag used for dispatch.
	Kind int
	// Payload is the encoded body (EncodePayload).
	Payload []byte
	// SendTime is the sender's virtual clock when the send happened.
	SendTime VTime
	// Arrive is the virtual arrival time at the receiver.
	Arrive VTime
	// Seq is a global sequence number (diagnostics, deterministic traces).
	Seq int64
	// Cause is what the transport detected on a KindPeerDown event — a
	// read EOF, a heartbeat expiry, a failed dial or send, an unhealed
	// grace window, a Kill — and nil on every other message. It is local
	// to the receiving node and never crosses a wire.
	Cause error
}

// Decode unmarshals the payload into v (a pointer).
func (m *Message) Decode(v any) error {
	return DecodePayload(m.Payload, v)
}

// Network is a set of simulated nodes plus traffic accounting. The node
// set can grow mid-run (Spawn), modelling machines that join a running
// cluster; it never shrinks — Kill marks nodes dead but keeps their ids.
type Network struct {
	model CostModel
	seq   atomic.Int64

	// mu guards the node set: Spawn write-locks to append, everything
	// else read-locks.
	mu    sync.RWMutex
	nodes []*Node

	// trMu guards tr, the per-link payload table (Table-4 accounting):
	// deliver adds to it, Spawn grows it.
	trMu sync.Mutex
	tr   Traffic

	traceMu sync.Mutex
	traceFn func(Event)

	deadMu sync.Mutex
	dead   map[int]bool // nodes removed by Kill
}

// NewNetwork creates n nodes (ids 0..n-1) sharing one cost model.
func NewNetwork(n int, model CostModel) *Network {
	nw := &Network{model: model.withDefaults(), tr: NewTraffic(n)}
	nw.nodes = make([]*Node, n)
	for i := range nw.nodes {
		nw.nodes[i] = &Node{id: i, nw: nw, inbox: NewInbox()}
	}
	return nw
}

// Size returns the number of nodes (including any spawned mid-run).
func (nw *Network) Size() int {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return len(nw.nodes)
}

// Node returns node i. Each node must be driven by exactly one goroutine.
func (nw *Network) Node(i int) *Node {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.nodes[i]
}

// Model returns the cost model in use.
func (nw *Network) Model() CostModel { return nw.model }

// Spawn adds one fresh node to a running network — the simulated analogue
// of a machine joining the cluster mid-run. The node starts with a zero
// clock and an empty inbox; every live node receives a synthetic KindPeerUp
// event naming it, which is how a protocol master learns a joiner is
// available. The traffic table grows to cover the new links. The returned
// node must be driven by exactly one goroutine, like every other node.
func (nw *Network) Spawn() *Node {
	nw.mu.Lock()
	id := len(nw.nodes)
	n := &Node{id: id, nw: nw, inbox: NewInbox()}
	nw.nodes = append(nw.nodes, n)
	// Grown before the write lock is released, so no delivery can see the
	// new node without its links.
	nw.trMu.Lock()
	nw.tr.Grow(id + 1)
	nw.trMu.Unlock()
	peers := append([]*Node(nil), nw.nodes[:id]...)
	nw.mu.Unlock()
	for _, p := range peers {
		if nw.isDead(p.id) {
			continue
		}
		// Synthetic event, mirroring Kill's KindPeerDown: no payload, no
		// traffic accounting, no clock advance.
		p.inbox.Put(Message{From: id, To: p.id, Kind: KindPeerUp})
	}
	return n
}

// SetSpeed scales node id's compute cost: factor 2 makes every inference
// cost twice the model's NsPerInference on that node, factor 0.5 half.
// Factors ≤ 0 reset to 1. The cluster is otherwise homogeneous; per-node
// factors model the heterogeneous machines throughput-aware balancing
// redistributes load over.
func (nw *Network) SetSpeed(id int, factor float64) {
	nw.Node(id).speed.Store(math.Float64bits(factor))
}

// Shutdown closes every inbox, releasing any blocked receiver.
func (nw *Network) Shutdown() {
	nw.mu.RLock()
	nodes := append([]*Node(nil), nw.nodes...)
	nw.mu.RUnlock()
	for _, n := range nodes {
		n.inbox.Fail(ErrClosed)
	}
}

// Kill simulates the crash of node id: its inbox closes (a goroutine
// blocked in its ReceiveCtx unblocks with ErrClosed), sends to it fail
// with ErrPeerDown, and every surviving node receives a synthetic
// KindPeerDown event whose Cause is ErrKilled — the failure contract of
// the TCP transport, whose failure detector reports a death the same way.
// Killing a node twice is a no-op.
func (nw *Network) Kill(id int) {
	nw.deadMu.Lock()
	if nw.dead == nil {
		nw.dead = make(map[int]bool)
	}
	if nw.dead[id] {
		nw.deadMu.Unlock()
		return
	}
	nw.dead[id] = true
	nw.deadMu.Unlock()
	nw.mu.RLock()
	nodes := append([]*Node(nil), nw.nodes...)
	nw.mu.RUnlock()
	nodes[id].inbox.Fail(ErrClosed)
	for _, n := range nodes {
		if n.id == id || nw.isDead(n.id) {
			continue
		}
		// Synthetic event: no payload, no traffic accounting, no clock
		// advance (Arrive zero never moves a receiver's clock forward).
		n.inbox.Put(Message{From: id, To: n.id, Kind: KindPeerDown, Cause: ErrKilled})
	}
}

func (nw *Network) isDead(id int) bool {
	nw.deadMu.Lock()
	defer nw.deadMu.Unlock()
	return nw.dead[id]
}

// Traffic snapshots the per-link byte/message table (Table-4 accounting).
func (nw *Network) Traffic() Traffic {
	nw.trMu.Lock()
	defer nw.trMu.Unlock()
	var t Traffic
	t.Merge(nw.tr) // into an empty table: a copy
	return t
}

// Makespan returns the maximum node clock; call it after all node
// goroutines have finished to obtain the simulated run time.
func (nw *Network) Makespan() VTime {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	var max VTime
	for _, n := range nw.nodes {
		if c := n.Clock(); c > max {
			max = c
		}
	}
	return max
}

// SetTrace installs a hook that observes every send and receive.
func (nw *Network) SetTrace(fn func(Event)) {
	nw.traceMu.Lock()
	nw.traceFn = fn
	nw.traceMu.Unlock()
}

func (nw *Network) emit(ev Event) {
	nw.traceMu.Lock()
	fn := nw.traceFn
	nw.traceMu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// EventType discriminates trace events.
type EventType uint8

const (
	// EvSend is emitted when a message leaves a node.
	EvSend EventType = iota
	// EvReceive is emitted when a node consumes a message.
	EvReceive
	// EvCompute is emitted when a node advances its clock by local work.
	EvCompute
)

func (t EventType) String() string {
	switch t {
	case EvSend:
		return "send"
	case EvReceive:
		return "recv"
	case EvCompute:
		return "work"
	}
	return "?"
}

// Event is one trace record.
type Event struct {
	Type  EventType
	Node  int   // acting node
	Peer  int   // counterpart (send: to, receive: from), -1 for compute
	Kind  int   // message kind, -1 for compute
	Bytes int   // payload bytes, 0 for compute
	Clock VTime // acting node's clock after the event
	Seq   int64
}

func (e Event) String() string {
	switch e.Type {
	case EvSend:
		return fmt.Sprintf("[%8.3fms] node %d send kind=%d to %d (%d B)", float64(e.Clock)/1e6, e.Node, e.Kind, e.Peer, e.Bytes)
	case EvReceive:
		return fmt.Sprintf("[%8.3fms] node %d recv kind=%d from %d (%d B)", float64(e.Clock)/1e6, e.Node, e.Kind, e.Peer, e.Bytes)
	default:
		return fmt.Sprintf("[%8.3fms] node %d compute", float64(e.Clock)/1e6, e.Node)
	}
}

// Node is one simulated cluster node. All methods must be called from the
// single goroutine that owns the node.
type Node struct {
	id    int
	nw    *Network
	inbox *Inbox
	clock atomic.Int64  // VTime; atomic so Makespan can read cross-goroutine
	speed atomic.Uint64 // float64 bits: per-node compute cost factor (0 = 1.0)
}

// Node implements the Transport abstraction over the simulated machine.
var _ Transport = (*Node)(nil)

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Size returns the number of nodes in the network (grows with Spawn).
func (n *Node) Size() int { return n.nw.Size() }

// Members returns the other nodes not removed by Kill, ascending
// (including any nodes spawned mid-run).
func (n *Node) Members() []int {
	size := n.nw.Size()
	n.nw.deadMu.Lock()
	defer n.nw.deadMu.Unlock()
	out := make([]int, 0, size-1)
	for id := 0; id < size; id++ {
		if id != n.id && !n.nw.dead[id] {
			out = append(out, id)
		}
	}
	return out
}

// NotifyFailures has no effect (see Transport.NotifyFailures).
func (n *Node) NotifyFailures(bool) {}

// Clock returns the node's current virtual time.
func (n *Node) Clock() VTime { return VTime(n.clock.Load()) }

func (n *Node) advanceTo(t VTime) {
	if t > n.Clock() {
		n.clock.Store(int64(t))
	}
}

// speedFactor returns this node's compute cost factor (default 1).
func (n *Node) speedFactor() float64 {
	f := math.Float64frombits(n.speed.Load())
	if f <= 0 {
		return 1
	}
	return f
}

// Compute advances the node's clock by units of work (SLD inferences) under
// the network cost model, scaled by the node's speed factor.
func (n *Node) Compute(units int64) {
	if units <= 0 {
		return
	}
	d := VTime(float64(units) * n.nw.model.NsPerInference * n.speedFactor())
	n.clock.Add(int64(d))
	n.nw.emit(Event{Type: EvCompute, Node: n.id, Peer: -1, Kind: -1, Clock: n.Clock()})
}

// Send encodes v and delivers it to node `to` without blocking.
// The sender is charged no compute time (sends are asynchronous); the
// receiver cannot observe the message before its arrival time. A Kill-ed
// destination fails the send with ErrPeerDown, as on the TCP transport.
func (n *Node) Send(to int, kind int, v any) error {
	payload, err := EncodePayload(v)
	if err == nil {
		err = n.deliver(to, kind, payload)
	}
	if err != nil {
		return fmt.Errorf("cluster: send from %d to %d kind %d: %w", n.id, to, kind, err)
	}
	return nil
}

// Broadcast sends v to every node in targets (encoded once). Like
// Send, it fails with ErrPeerDown on the first dead target (the live
// targets before it are delivered).
func (n *Node) Broadcast(targets []int, kind int, v any) error {
	payload, err := EncodePayload(v)
	if err != nil {
		return fmt.Errorf("cluster: broadcast from %d kind %d: %w", n.id, kind, err)
	}
	for _, to := range targets {
		if err := n.deliver(to, kind, payload); err != nil {
			return fmt.Errorf("cluster: broadcast from %d to %d kind %d: %w", n.id, to, kind, err)
		}
	}
	return nil
}

// deliver queues one message for node to, or fails with ErrPeerDown when
// to is dead: a dead machine neither receives nor accounts traffic.
func (n *Node) deliver(to int, kind int, payload []byte) error {
	nw := n.nw
	if nw.isDead(to) {
		return ErrPeerDown
	}
	seq := nw.seq.Add(1)
	sendTime := n.Clock()
	msg := Message{
		From:     n.id,
		To:       to,
		Kind:     kind,
		Payload:  payload,
		SendTime: sendTime,
		Arrive:   sendTime + nw.model.transferTime(len(payload)),
		Seq:      seq,
	}
	nw.trMu.Lock()
	nw.tr.Add(n.id, to, int64(len(payload)), 1)
	nw.trMu.Unlock()
	dst := nw.Node(to)
	nw.emit(Event{Type: EvSend, Node: n.id, Peer: to, Kind: kind, Bytes: len(payload), Clock: sendTime, Seq: seq})
	dst.inbox.Put(msg)
	return nil
}

// ReceiveCtx blocks until a message is available, advances the node's
// clock to its arrival time and returns it. It unblocks with ErrClosed
// after Shutdown (or this node's Kill), or with the context error when ctx
// expires first, so a deadline surfaces as an error instead of a deadlock.
func (n *Node) ReceiveCtx(ctx context.Context) (Message, error) {
	msg, err := n.inbox.Take(ctx)
	if err != nil {
		return Message{}, err
	}
	n.advanceTo(msg.Arrive)
	n.nw.emit(Event{Type: EvReceive, Node: n.id, Peer: msg.From, Kind: msg.Kind, Bytes: len(msg.Payload), Clock: n.Clock(), Seq: msg.Seq})
	return msg, nil
}
