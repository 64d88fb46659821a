// Package faultline is a deterministic fault-injection wrapper around
// cluster.Transport. It schedules faults by *protocol-message count* under a
// fixed seed — every data send and every delivered data message is one
// numbered "op" — so a chaos schedule like "crash the master at op 37" or
// "drop 5% of receives with seed 1" replays identically run after run, on
// the simulated machine and on TCP alike. Hand-placed Kill hooks find the
// failure points someone thought of; a counted schedule can visit all of
// them.
//
// Synthetic membership events (negative kinds, KindPeerDown/KindPeerUp) are
// passed through uncounted and unfaulted: faultline perturbs the protocol,
// never the transport's own failure detector.
package faultline

import (
	"context"
	"errors"
	"time"

	"repro/internal/cluster"
	"repro/internal/rng"
)

// ErrCrashed is returned by every transport method once the crash schedule
// has fired: the wrapped node is dead and stays dead, exactly as if the
// process had been killed at that protocol point.
var ErrCrashed = errors.New("faultline: crashed by schedule")

// Plan is a deterministic fault schedule. The zero value injects nothing
// and is bitwise-transparent: calls delegate unchanged, only the op counter
// runs (which is how a probe run measures a protocol's op count).
type Plan struct {
	// Seed drives the probabilistic faults; the same seed replays the same
	// fault sequence. Zero picks a fixed default, never wall-clock entropy.
	Seed int64
	// CrashAtOp kills the transport when the op'th protocol point (1-based)
	// is reached: the op itself does not execute — a send dies before the
	// wire, a receive dies before delivery. 0 = never.
	CrashAtOp int64
	// OnCrash, when non-nil, runs once at the moment the crash fires.
	OnCrash func()
	// DropSend is the probability a data send is silently discarded.
	DropSend float64
	// DropRecv is the probability a delivered data message is discarded
	// before the caller sees it.
	DropRecv float64
	// DupRecv is the probability a delivered data message is delivered
	// twice.
	DupRecv float64
	// DelayRecv is the probability a delivered data message is held back
	// and re-delivered DelayOps receive-ops later (reordering).
	DelayRecv float64
	// DelayOps is the holdback distance for DelayRecv (default 3).
	DelayOps int64

	// FlapAtOp starts a transient link blip at the op'th protocol point
	// (1-based, once per run). With OnFlap set the blip is delegated —
	// e.g. netcluster.Node.DropLinks severs every live TCP conn and the
	// link-session layer replays the gap (DESIGN.md §9). Without OnFlap
	// the wrapper simulates the blip itself: the node's NIC is "down" for
	// FlapFor of wall time, so its protocol ops — sends and receives alike
	// — stall until the window closes and then proceed. No loss, no
	// reorder, so a run's protocol outcome is unchanged by the flap.
	// 0 = never.
	FlapAtOp int64
	// FlapFor is the blip duration (default 40ms).
	FlapFor time.Duration
	// OnFlap, when non-nil, runs once at FlapAtOp in place of the
	// built-in buffering blip.
	OnFlap func()

	// PartitionAtOp starts a lossy one-sided partition at the op'th
	// protocol point (1-based, once per run): for PartitionFor of wall
	// time, traffic on the PartitionSide is silently dropped — real loss,
	// unlike a flap, so the protocol must recover on its own. 0 = never.
	PartitionAtOp int64
	// PartitionFor is the partition duration (default 40ms).
	PartitionFor time.Duration
	// PartitionSide selects what the window drops: "out" (this node's
	// sends), "in" (its delivered data messages), or "both" (default).
	PartitionSide string
}

// Transport wraps an inner cluster.Transport with a Plan. It is safe for
// the same single-goroutine use the inner transport supports; the op
// counter and fault state are mutex-free by design because protocol nodes
// are single-threaded.
type Transport struct {
	inner cluster.Transport
	plan  Plan
	rng   *rng.Rand // draws the drop/dup/delay decisions

	ops     int64
	sends   int64
	recvs   int64
	crashed bool

	// ready holds duplicated messages due for immediate re-delivery; held
	// holds delayed messages with the recv-op count at which they release.
	ready []cluster.Message
	held  []heldMsg

	// Flap/partition window state: each fires at most once; flapUntil and
	// partUntil are zero outside their windows.
	flapFired bool
	flapUntil time.Time
	partFired bool
	partUntil time.Time
	flaps     int64
}

type heldMsg struct {
	msg       cluster.Message
	releaseAt int64
}

// Wrap returns inner under plan's fault schedule.
func Wrap(inner cluster.Transport, plan Plan) *Transport {
	if plan.DelayOps <= 0 {
		plan.DelayOps = 3
	}
	return &Transport{inner: inner, plan: plan, rng: rng.New(plan.Seed)}
}

// Ops returns the number of protocol points counted so far.
func (t *Transport) Ops() int64 { return t.ops }

// Sends returns the number of per-destination data sends counted so far.
func (t *Transport) Sends() int64 { return t.sends }

// Recvs returns the number of delivered data messages counted so far.
func (t *Transport) Recvs() int64 { return t.recvs }

// Crashed reports whether the crash schedule has fired.
func (t *Transport) Crashed() bool { return t.crashed }

// Flaps returns the number of flap windows fired (0 or 1 per plan).
func (t *Transport) Flaps() int64 { return t.flaps }

// Inner exposes the wrapped transport, so capability probes (address
// books, link liveness) can see through the fault layer — faults apply to
// protocol traffic, not to out-of-band endpoint introspection.
func (t *Transport) Inner() cluster.Transport { return t.inner }

// tick numbers the next protocol point and fires the crash, flap and
// partition schedules when their ops come up. It reports whether the op
// may proceed.
func (t *Transport) tick() bool {
	t.ops++
	if t.plan.CrashAtOp > 0 && t.ops >= t.plan.CrashAtOp {
		t.crashed = true
		if t.plan.OnCrash != nil {
			t.plan.OnCrash()
			t.plan.OnCrash = nil
		}
		return false
	}
	if t.plan.FlapAtOp > 0 && !t.flapFired && t.ops >= t.plan.FlapAtOp {
		t.flapFired = true
		t.flaps++
		if t.plan.OnFlap != nil {
			t.plan.OnFlap()
		} else {
			t.flapUntil = time.Now().Add(windowDur(t.plan.FlapFor))
		}
	}
	if t.plan.PartitionAtOp > 0 && !t.partFired && t.ops >= t.plan.PartitionAtOp {
		t.partFired = true
		t.partUntil = time.Now().Add(windowDur(t.plan.PartitionFor))
	}
	return true
}

// windowDur applies the default flap/partition window length.
func windowDur(d time.Duration) time.Duration {
	if d <= 0 {
		return 40 * time.Millisecond
	}
	return d
}

// stallFlap blocks until the built-in flap window has closed, then clears
// it. The node is single-threaded, so stalling its next protocol op is
// exactly what a NIC-down blip does to it — and unlike buffering, a stall
// cannot strand traffic if the node's run ends during the window.
func (t *Transport) stallFlap() {
	if t.flapUntil.IsZero() {
		return
	}
	if d := time.Until(t.flapUntil); d > 0 {
		time.Sleep(d)
	}
	t.flapUntil = time.Time{}
}

// partActive reports whether the partition window is open for side,
// clearing the window once the wall clock has passed.
func (t *Transport) partActive(side string) bool {
	if t.partUntil.IsZero() {
		return false
	}
	if !time.Now().Before(t.partUntil) {
		t.partUntil = time.Time{}
		return false
	}
	switch t.plan.PartitionSide {
	case "", "both":
		return true
	default:
		return t.plan.PartitionSide == side
	}
}

func (t *Transport) ID() int              { return t.inner.ID() }
func (t *Transport) Size() int            { return t.inner.Size() }
func (t *Transport) Compute(units int64)  { t.inner.Compute(units) }
func (t *Transport) Clock() cluster.VTime { return t.inner.Clock() }
func (t *Transport) Members() []int       { return t.inner.Members() }
func (t *Transport) NotifyFailures(bool)  {}

// Traffic satisfies cluster.TrafficReporter when the inner transport does.
func (t *Transport) Traffic() cluster.Traffic {
	if tr, ok := t.inner.(cluster.TrafficReporter); ok {
		return tr.Traffic()
	}
	return cluster.Traffic{}
}

// Send counts one op and delegates, unless the schedule crashes or drops it.
func (t *Transport) Send(to int, kind int, v any) error {
	if t.crashed {
		return ErrCrashed
	}
	if !t.tick() {
		return ErrCrashed
	}
	t.sends++
	if t.plan.DropSend > 0 && t.rng.Float64() < t.plan.DropSend {
		return nil // swallowed: the caller believes it went out
	}
	if t.partActive("out") {
		return nil // partitioned away: real loss, the protocol must recover
	}
	t.stallFlap()
	return t.inner.Send(to, kind, v)
}

// Broadcast counts one op per destination. When no fault can fire inside
// the window it delegates to the inner broadcast (bitwise-identical to an
// unwrapped run); otherwise it decomposes into per-target sends so a crash
// mid-window leaves exactly the prefix delivered, the way a real process
// death interrupts a broadcast loop.
func (t *Transport) Broadcast(targets []int, kind int, v any) error {
	if t.crashed {
		return ErrCrashed
	}
	crashInWindow := t.plan.CrashAtOp > 0 && t.plan.CrashAtOp <= t.ops+int64(len(targets))
	flapLive := t.plan.FlapAtOp > 0 && (!t.flapFired || !t.flapUntil.IsZero())
	partLive := t.plan.PartitionAtOp > 0 && (!t.partFired || !t.partUntil.IsZero())
	if !crashInWindow && t.plan.DropSend == 0 && !flapLive && !partLive {
		t.ops += int64(len(targets))
		t.sends += int64(len(targets))
		return t.inner.Broadcast(targets, kind, v)
	}
	for _, to := range targets {
		if err := t.Send(to, kind, v); err != nil {
			return err
		}
	}
	return nil
}

// ReceiveCtx counts one op per delivered data message and applies the
// receive-side faults. Synthetic events pass through untouched.
func (t *Transport) ReceiveCtx(ctx context.Context) (cluster.Message, error) {
	for {
		if t.crashed {
			return cluster.Message{}, ErrCrashed
		}
		if !t.flapUntil.IsZero() {
			// The node's NIC is "down": wait the blip out before reading.
			// The caller's deadline still applies — the grace machinery
			// hides a flap from the protocol, never from its timeouts.
			if d := time.Until(t.flapUntil); d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-ctx.Done():
					timer.Stop()
					return cluster.Message{}, ctx.Err()
				case <-timer.C:
				}
			}
			t.flapUntil = time.Time{}
		}
		msg, fromQueue, err := t.next(ctx)
		if err != nil {
			return cluster.Message{}, err
		}
		if msg.Kind < 0 {
			return msg, nil // membership events are never faulted
		}
		if !t.tick() {
			return cluster.Message{}, ErrCrashed
		}
		t.recvs++
		if fromQueue {
			return msg, nil // re-deliveries are not faulted again
		}
		if t.plan.DropRecv > 0 && t.rng.Float64() < t.plan.DropRecv {
			continue
		}
		if t.partActive("in") {
			continue // partitioned away before the caller saw it
		}
		if t.plan.DupRecv > 0 && t.rng.Float64() < t.plan.DupRecv {
			t.ready = append(t.ready, msg)
		}
		if t.plan.DelayRecv > 0 && t.rng.Float64() < t.plan.DelayRecv {
			t.held = append(t.held, heldMsg{msg: msg, releaseAt: t.recvs + t.plan.DelayOps})
			continue
		}
		return msg, nil
	}
}

// next yields the first due held message, then any duplicate, then the
// inner transport's stream.
func (t *Transport) next(ctx context.Context) (cluster.Message, bool, error) {
	for i, h := range t.held {
		if h.releaseAt <= t.recvs {
			t.held = append(t.held[:i], t.held[i+1:]...)
			return h.msg, true, nil
		}
	}
	if len(t.ready) > 0 {
		msg := t.ready[0]
		t.ready = t.ready[1:]
		return msg, true, nil
	}
	msg, err := t.inner.ReceiveCtx(ctx)
	return msg, false, err
}
