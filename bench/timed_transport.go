package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// TimedTransport decorates one node's cluster.Transport with wall-clock
// accounting, from outside the protocol: how long the node was blocked in
// ReceiveCtx, how long its sends took, and — as the remainder — how long it
// was doing its own work between transport calls. Received payload bytes
// are counted by message kind, and the span from receiving a message of one
// kind until the node asks for the next message is kept per kind (a
// worker's stage and evaluate handling times).
//
// Like faultline.Transport it exposes Inner() and forwards Traffic(), so
// core's capability probes still see the netcluster.Node underneath and the
// learned theory and traffic tables are byte-identical with or without it.
// A transport is driven by one goroutine; so is this.
type TimedTransport struct {
	inner cluster.Transport
	tr    *tracer
	lane  string
	op    int
	root  int

	begun, ended time.Time
	lastCall     time.Time // when the previous transport call returned
	lastRecv     time.Time // when the previous successful receive returned
	lastKind     int       // kind of the last received message, -1 before the first

	RecvWait    time.Duration
	SendTime    time.Duration
	Recvs       int64
	Sends       int64
	BytesByKind map[int]int64
	MsgsByKind  map[int]int64
	// HandleByKind[k] holds, per received message of kind k, the time from
	// its delivery to the node's next ReceiveCtx call.
	HandleByKind map[int][]time.Duration
}

// NewTimedTransport wraps inner. With a non-nil tracer every receive wait,
// send and compute gap also becomes a span on the given lane, under one
// root span that Finish closes.
func NewTimedTransport(inner cluster.Transport, tr *tracer, lane string, op int) *TimedTransport {
	now := time.Now()
	return &TimedTransport{
		inner: inner, tr: tr, lane: lane, op: op,
		root:  tr.open(lane, "rep", 0, op, now),
		begun: now, lastCall: now, lastKind: -1,
		BytesByKind:  map[int]int64{},
		MsgsByKind:   map[int]int64{},
		HandleByKind: map[int][]time.Duration{},
	}
}

// Finish closes the lane: the interval since the last transport call is the
// node's final stretch of own work.
func (t *TimedTransport) Finish() {
	if !t.ended.IsZero() {
		return
	}
	t.ended = time.Now()
	t.gap(t.ended)
	t.tr.close(t.root, t.ended)
}

// Wall is the lane's duration (valid after Finish).
func (t *TimedTransport) Wall() time.Duration { return t.ended.Sub(t.begun) }

// ComputeTime is the time spent outside transport calls (valid after Finish).
func (t *TimedTransport) ComputeTime() time.Duration { return t.Wall() - t.RecvWait - t.SendTime }

// gap records the node's own work between the previous transport call and
// the one starting now.
func (t *TimedTransport) gap(now time.Time) {
	if t.tr != nil && now.After(t.lastCall) {
		name := "compute"
		if t.lastKind >= 0 {
			name = fmt.Sprintf("compute after k%02d", t.lastKind)
		}
		t.tr.add(t.lane, name, t.root, t.op, t.lastCall, now)
	}
}

func (t *TimedTransport) timedSend(kind int, send func() error) error {
	start := time.Now()
	t.gap(start)
	err := send()
	end := time.Now()
	t.SendTime += end.Sub(start)
	t.Sends++
	t.lastCall = end
	if t.tr != nil {
		t.tr.add(t.lane, fmt.Sprintf("send k%02d", kind), t.root, t.op, start, end)
	}
	return err
}

func (t *TimedTransport) Send(to int, kind int, v any) error {
	return t.timedSend(kind, func() error { return t.inner.Send(to, kind, v) })
}

func (t *TimedTransport) Broadcast(targets []int, kind int, v any) error {
	return t.timedSend(kind, func() error { return t.inner.Broadcast(targets, kind, v) })
}

func (t *TimedTransport) ReceiveCtx(ctx context.Context) (cluster.Message, error) {
	start := time.Now()
	t.gap(start)
	if t.lastKind >= 0 {
		t.HandleByKind[t.lastKind] = append(t.HandleByKind[t.lastKind], start.Sub(t.lastRecv))
	}
	msg, err := t.inner.ReceiveCtx(ctx)
	end := time.Now()
	t.RecvWait += end.Sub(start)
	t.lastCall = end
	t.lastKind = -1
	if err == nil {
		t.Recvs++
		t.lastKind = msg.Kind
		t.lastRecv = end
		t.BytesByKind[msg.Kind] += int64(len(msg.Payload))
		t.MsgsByKind[msg.Kind]++
	}
	if t.tr != nil {
		t.tr.add(t.lane, "recv-wait", t.root, t.op, start, end)
	}
	return msg, err
}

func (t *TimedTransport) ID() int                { return t.inner.ID() }
func (t *TimedTransport) Size() int              { return t.inner.Size() }
func (t *TimedTransport) Compute(units int64)    { t.inner.Compute(units) }
func (t *TimedTransport) Clock() cluster.VTime   { return t.inner.Clock() }
func (t *TimedTransport) Members() []int         { return t.inner.Members() }
func (t *TimedTransport) NotifyFailures(on bool) { t.inner.NotifyFailures(on) }

// Inner exposes the wrapped transport to core's capability probes.
func (t *TimedTransport) Inner() cluster.Transport { return t.inner }

// Traffic satisfies cluster.TrafficReporter when the inner transport does.
func (t *TimedTransport) Traffic() cluster.Traffic {
	if tr, ok := t.inner.(cluster.TrafficReporter); ok {
		return tr.Traffic()
	}
	return cluster.Traffic{}
}
