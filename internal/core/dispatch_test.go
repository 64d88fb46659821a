package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/wire"
)

// The master's event-dispatch loop (nextReply) is the heart of the
// fault-tolerant epoch engine: these tests drive it directly over a
// simulated network where the test plays the workers, covering the error
// paths — kind mismatch, stale-epoch drops, truncated/garbled payloads,
// duplicates, future epochs and membership events.

// junk is a payload with a wire envelope but no protocol shape: its bytes
// are written verbatim, so decoding it as any message struct fails the way
// a truncated or corrupt frame does. junk{0x80} is a varint cut mid-value.
type junk []byte

func (j junk) AppendWire(w *wire.Writer) { w.B = append(w.B, j...) }

// dispatchRig is a master mid-epoch over p fake workers driven by the test.
type dispatchRig struct {
	ma *master
	nw *cluster.Network
}

func newDispatchRig(t *testing.T, p int, recovery bool) *dispatchRig {
	t.Helper()
	nw := cluster.NewNetwork(p+1, cluster.CostModel{})
	cfg := Config{
		Workers:     p,
		Recover:     recovery,
		RecvTimeout: 5 * time.Second, // fail tests instead of hanging them
	}.withDefaults()
	empty := make([][]logic.Term, p)
	ma := newMaster(nw.Node(0), p, cfg, &Metrics{}, p, empty, empty)
	ma.node.NotifyFailures(recovery)
	ma.epoch = 3 // pretend we are mid-run so both older and newer epochs exist
	return &dispatchRig{ma: ma, nw: nw}
}

// sendAs injects a message from worker id into the master's inbox.
func (r *dispatchRig) sendAs(t *testing.T, id, kind int, v any) {
	t.Helper()
	if err := r.nw.Node(id).Send(0, kind, v); err != nil {
		t.Fatal(err)
	}
}

// gatherOne runs one nextReply for kindRules over the full pending set.
func (r *dispatchRig) gatherOne() (replyHdr, error) {
	return r.ma.nextReply(kindRules, r.ma.pendingLive(), func() replyHdr { return new(rulesMsg) })
}

func TestDispatchErrorPaths(t *testing.T) {
	rule := logic.MustParseClause("p(X) :- q(X).")
	cases := []struct {
		name    string
		recover bool
		inject  func(t *testing.T, r *dispatchRig)
		// wantErr is a substring of the expected error; empty means the
		// gather must succeed.
		wantErr string
		// wantStale is the number of stale drops the master must count.
		wantStale int64
		// wantLost, when true, expects a workerLostError.
		wantLost bool
	}{
		{
			name: "kind mismatch same epoch",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindEvalResult, evalResultMsg{Epoch: 3, Worker: 1})
			},
			wantErr: "expected kind",
		},
		{
			name: "stale epoch reply dropped then current accepted",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindRules, rulesMsg{Epoch: 2, Origin: 1, Rules: []logic.Clause{rule}})
				r.sendAs(t, 1, kindRules, rulesMsg{Epoch: 3, Origin: 1})
				r.sendAs(t, 2, kindRules, rulesMsg{Epoch: 3, Origin: 2})
			},
			wantStale: 1,
		},
		{
			name: "stale foreign kind dropped then current accepted",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 2, kindEvalResult, evalResultMsg{Epoch: 1, Worker: 2})
				r.sendAs(t, 2, kindAdopted, adoptedMsg{Epoch: 2, Worker: 2})
				r.sendAs(t, 1, kindRules, rulesMsg{Epoch: 3, Origin: 1})
				r.sendAs(t, 2, kindRules, rulesMsg{Epoch: 3, Origin: 2})
			},
			wantStale: 2,
		},
		{
			name: "truncated stream",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindRules, junk{0x80})
			},
			wantErr: "truncated or garbled",
		},
		{
			name: "garbled foreign kind",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindAdopted, junk{0x80})
			},
			wantErr: "garbled",
		},
		{
			name: "duplicate reply",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindRules, rulesMsg{Epoch: 3, Origin: 1})
				r.sendAs(t, 1, kindRules, rulesMsg{Epoch: 3, Origin: 1})
			},
			wantErr: "duplicate or unexpected",
		},
		{
			name: "unknown origin",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindRules, rulesMsg{Epoch: 3, Origin: 9})
			},
			wantErr: "duplicate or unexpected",
		},
		{
			name: "future epoch",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindRules, rulesMsg{Epoch: 99, Origin: 1})
			},
			wantErr: "future epoch",
		},
		{
			name:    "worker death with recovery",
			recover: true,
			inject: func(t *testing.T, r *dispatchRig) {
				r.nw.Kill(2)
			},
			wantLost: true,
		},
		{
			// A one-sided link failure: only a sibling saw worker 2 die,
			// so its report must drive the eviction.
			name:    "sibling suspicion evicts live member",
			recover: true,
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindSuspect, suspectMsg{Epoch: 1, Worker: 1, Peer: 2})
			},
			wantLost: true,
		},
		{
			name: "worker death without recovery",
			// NotifyFailures is off, so Kill is silent; the dispatch loop
			// must still fail via the receive deadline instead of hanging.
			inject: func(t *testing.T, r *dispatchRig) {
				r.ma.cfg.RecvTimeout = 50 * time.Millisecond
				r.nw.Kill(2)
			},
			wantErr: "gather after 0 completed epochs, wire epoch 3: waiting for rules from origins [1 2]",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := newDispatchRig(t, 2, tc.recover)
			tc.inject(t, r)
			var err error
			pending := r.ma.pendingLive()
			for len(pending) > 0 {
				_, err = r.ma.nextReply(kindRules, pending, func() replyHdr { return new(rulesMsg) })
				if err != nil {
					break
				}
			}
			if tc.wantLost {
				if asWorkerLost(err) == nil {
					t.Fatalf("err = %v, want workerLostError", err)
				}
				if r.ma.isLive(2) || len(r.ma.targets) != 1 {
					t.Fatalf("membership not updated: %v", r.ma.targets)
				}
				if r.ma.metrics.LostWorkers != 1 {
					t.Fatalf("LostWorkers = %d", r.ma.metrics.LostWorkers)
				}
				return
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("gather failed: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if got := r.ma.metrics.StaleDropped; got != tc.wantStale {
				t.Fatalf("StaleDropped = %d, want %d", got, tc.wantStale)
			}
		})
	}
}

// TestSuspicionAboutExcludedPeerIsDropped pins the common suspect case:
// the master's own link noticed the death first, so the sibling's late
// report about the already-excluded peer must be moot — and gathering
// from the survivor continues undisturbed.
func TestSuspicionAboutExcludedPeerIsDropped(t *testing.T) {
	r := newDispatchRig(t, 2, true)
	r.nw.Kill(2)
	_, err := r.gatherOne()
	if asWorkerLost(err) == nil {
		t.Fatalf("err = %v, want workerLostError from the master's own event", err)
	}
	r.sendAs(t, 1, kindSuspect, suspectMsg{Epoch: 3, Worker: 1, Peer: 2})
	r.sendAs(t, 1, kindRules, rulesMsg{Epoch: 3, Origin: 1})
	pending := r.ma.pendingLive() // now just worker 1
	if _, err := r.ma.nextReply(kindRules, pending, func() replyHdr { return new(rulesMsg) }); err != nil {
		t.Fatalf("gather after moot suspicion failed: %v", err)
	}
	if r.ma.metrics.LostWorkers != 1 {
		t.Fatalf("LostWorkers = %d, want 1 (suspicion must not double-count)", r.ma.metrics.LostWorkers)
	}
}

// TestDeathWithoutRecoveryIsAnError pins the fail-stop contract: a
// membership event reaching a master whose recovery is disabled fails the
// run with an actionable message.
func TestDeathWithoutRecoveryIsAnError(t *testing.T) {
	r := newDispatchRig(t, 2, false)
	r.ma.node.NotifyFailures(true) // events delivered, recovery still off
	r.nw.Kill(2)
	_, err := r.gatherOne()
	if err == nil || !strings.Contains(err.Error(), "recovery is disabled") {
		t.Fatalf("err = %v, want recovery-disabled error", err)
	}
}

// TestAllWorkersLostIsFatal: recovery cannot continue with zero survivors.
func TestAllWorkersLostIsFatal(t *testing.T) {
	r := newDispatchRig(t, 2, true)
	r.nw.Kill(1)
	r.nw.Kill(2)
	var err error
	for i := 0; i < 2; i++ {
		_, err = r.gatherOne()
		if err != nil && asWorkerLost(err) == nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "no workers survive") {
		t.Fatalf("err = %v, want no-survivors error", err)
	}
}

// TestWaitingForNamesTheRedeal: both waits of the redeal barrier — the pool
// and the install acks — report as one phase, told apart by what is owed.
func TestWaitingForNamesTheRedeal(t *testing.T) {
	r := newDispatchRig(t, 2, false)
	for want, text := range map[int]string{
		kindGathered:    "redeal after 0 completed epochs, wire epoch 3: waiting for alive positives from workers [1 2]",
		kindReassignAck: "redeal after 0 completed epochs, wire epoch 3: waiting for install acks from workers [1 2]",
	} {
		if got := r.ma.waitingFor(want, r.ma.pendingLive()); got != text {
			t.Errorf("waitingFor(kind %d) = %q, want %q", want, got, text)
		}
	}
}
