package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/wire"
)

// The master's one receive path (nextReply filing into ledgers) is the
// heart of the fault-tolerant epoch engine: these tests drive it directly
// over a simulated network where the test plays the workers, covering the
// error paths — kind mismatch, stale-epoch drops, truncated/garbled
// payloads, duplicates, future epochs and membership events — and the
// resume ledger's own rules.

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

// gather awaits a kindRules ledger over the live membership, as gatherBag
// does, and closes it.
func (r *dispatchRig) gather() error {
	l := r.ma.open(kindRules)
	defer r.ma.close(l)
	return r.ma.await(l)
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
				r.sendAs(t, 1, kindEvalResult, evalResultMsg{tag: tag{Epoch: 3}, Worker: 1})
			},
			wantErr: "expected kind",
		},
		{
			name: "stale epoch reply dropped then current accepted",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 2}, Origin: 1, Rules: []logic.Clause{rule}})
				r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 1})
				r.sendAs(t, 2, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 2})
			},
			wantStale: 1,
		},
		{
			name: "stale foreign kind dropped then current accepted",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 2, kindEvalResult, evalResultMsg{tag: tag{Epoch: 1}, Worker: 2})
				r.sendAs(t, 2, kindAdopted, adoptedMsg{tag: tag{Epoch: 2}, Worker: 2})
				r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 1})
				r.sendAs(t, 2, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 2})
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
				r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 1})
				r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 1})
			},
			wantErr: "duplicate or unexpected",
		},
		{
			name: "unknown origin",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 9})
			},
			wantErr: "duplicate or unexpected",
		},
		{
			name: "future epoch",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 99}, Origin: 1})
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
				r.sendAs(t, 1, kindSuspect, suspectMsg{tag: tag{Epoch: 1}, Worker: 1, Peer: 2})
			},
			wantLost: true,
		},
		{
			// The transport announces the death; without recovery the
			// announcement fails the run at once, naming the dead worker
			// and what the phase was owed.
			name: "worker death without recovery",
			inject: func(t *testing.T, r *dispatchRig) {
				r.nw.Kill(2)
			},
			wantErr: "worker 2 failed and recovery is disabled (run with Recover to continue on survivors): gather after 0 completed epochs, wire epoch 3: waiting for rules from origins [1 2]",
		},
		{
			// A sibling's report is a death like the master's own event.
			name: "sibling suspicion without recovery",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindSuspect, suspectMsg{tag: tag{Epoch: 1}, Worker: 1, Peer: 2})
			},
			wantErr: "worker 2 failed and recovery is disabled",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := newDispatchRig(t, 2, tc.recover)
			tc.inject(t, r)
			err := r.gather()
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
	err := r.gather()
	if asWorkerLost(err) == nil {
		t.Fatalf("err = %v, want workerLostError from the master's own event", err)
	}
	r.sendAs(t, 1, kindSuspect, suspectMsg{tag: tag{Epoch: 3}, Worker: 1, Peer: 2})
	r.sendAs(t, 1, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 1})
	if err := r.gather(); err != nil { // now just worker 1
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
	err := r.gather()
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
		err = r.gather()
		if err != nil && asWorkerLost(err) == nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "no workers survive") {
		t.Fatalf("err = %v, want no-survivors error", err)
	}
}

// TestWaitingForNamesTheRedeal: every ledger kind names its phase and what
// is owed; both waits of the redeal barrier — the pool and the install
// acks — report as one phase, told apart by what is owed.
func TestWaitingForNamesTheRedeal(t *testing.T) {
	r := newDispatchRig(t, 2, false)
	for _, tc := range []struct {
		kind int
		text string
	}{
		{kindRules, "gather after 0 completed epochs, wire epoch 3: waiting for rules from origins [1 2]"},
		{kindEvalResult, "evaluate after 0 completed epochs, wire epoch 3: waiting for counts from workers [1 2]"},
		{kindGathered, "redeal after 0 completed epochs, wire epoch 3: waiting for alive positives from workers [1 2]"},
		{kindReassignAck, "redeal after 0 completed epochs, wire epoch 3: waiting for install acks from workers [1 2]"},
		{kindAdopted, "adopt after 0 completed epochs, wire epoch 3: waiting for adoptions(epoch 3) from [1 2]"},
		{kindFinal, "drain after 0 completed epochs, wire epoch 3: waiting for final reports from workers [1 2]"},
		{kindResumeInfo, "resume after 0 completed epochs, wire epoch 3: waiting for resume info from workers [1 2]"},
	} {
		l := r.ma.open(tc.kind)
		if got := r.ma.waitingFor(); got != tc.text {
			t.Errorf("waitingFor(kind %d) = %q, want %q", tc.kind, got, tc.text)
		}
		r.ma.close(l)
	}
}

// TestResumeTimeoutNamesWhoOwes: a resume whose receive deadline fires
// says which workers still owe their resume info, like every other wait.
func TestResumeTimeoutNamesWhoOwes(t *testing.T) {
	r := newDispatchRig(t, 2, false)
	r.ma.cfg.RecvTimeout = 50 * time.Millisecond
	r.sendAs(t, 1, kindResumeInfo, resumeInfoMsg{tag: tag{Epoch: 3}, Worker: 1, Loaded: true})
	const want = "resume after 0 completed epochs, wire epoch 3: waiting for resume info from workers [2]"
	if err := r.ma.resumeCluster(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v\nwant substring %q", err, want)
	}
}

// TestResumeLedgerRules drives the resume collection: no epoch check,
// every frame no ledger owes is residue (counted stale, never adopted), a
// death strikes the dead worker off instead of aborting, and generation
// fences, garbling and duplicates are errors as in every other wait.
func TestResumeLedgerRules(t *testing.T) {
	ex := logic.MustParseTerm("active(m1)")
	info := func(worker, epoch int) resumeInfoMsg {
		return resumeInfoMsg{tag: tag{Epoch: epoch}, Worker: worker, Loaded: true}
	}
	cases := []struct {
		name       string
		inject     func(t *testing.T, r *dispatchRig)
		wantErr    string // substring; empty means the collection succeeds
		superseded bool
		wantStale  int64
		wantInfos  []int
		wantLost   int
	}{
		{
			name: "worker ahead of the checkpoint",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindResumeInfo, info(1, 9))
				r.sendAs(t, 2, kindResumeInfo, info(2, 1))
			},
			wantInfos: []int{1, 2},
		},
		{
			name: "pre-crash adoption and rules are residue",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindAdopted, adoptedMsg{tag: tag{Epoch: 2}, Worker: 1, Ok: true, Example: ex})
				r.sendAs(t, 2, kindRules, rulesMsg{tag: tag{Epoch: 3}, Origin: 2})
				r.sendAs(t, 1, kindResumeInfo, info(1, 3))
				r.sendAs(t, 2, kindResumeInfo, info(2, 3))
			},
			wantStale: 2,
			wantInfos: []int{1, 2},
		},
		{
			name: "suspicion is residue",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindSuspect, suspectMsg{tag: tag{Epoch: 3}, Worker: 1, Peer: 2})
				r.sendAs(t, 1, kindResumeInfo, info(1, 3))
				r.sendAs(t, 2, kindResumeInfo, info(2, 3))
			},
			wantStale: 1,
			wantInfos: []int{1, 2},
		},
		{
			name: "pending worker's death strikes it off",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindResumeInfo, info(1, 3))
				r.nw.Kill(2)
			},
			wantInfos: []int{1},
			wantLost:  1,
		},
		{
			name: "fence from a newer generation",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindFenced, fencedMsg{tag: tag{Epoch: 3, Gen: 1}, Worker: 1})
			},
			superseded: true,
		},
		{
			name: "resume info from a newer generation",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindResumeInfo, resumeInfoMsg{tag: tag{Epoch: 3, Gen: 1}, Worker: 1})
			},
			superseded: true,
		},
		{
			name: "duplicate resume info",
			inject: func(t *testing.T, r *dispatchRig) {
				r.sendAs(t, 1, kindResumeInfo, info(1, 3))
				r.sendAs(t, 1, kindResumeInfo, info(1, 3))
			},
			wantErr: "duplicate or unexpected kind-",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newDispatchRig(t, 2, true)
			tc.inject(t, r)
			infos, err := r.ma.queryResume()
			switch {
			case tc.superseded:
				if !errors.Is(err, ErrSuperseded) {
					t.Fatalf("err = %v, want ErrSuperseded", err)
				}
				return
			case tc.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			case err != nil:
				t.Fatalf("resume collection failed: %v", err)
			}
			var got []int
			for k := range infos {
				got = append(got, k)
			}
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(tc.wantInfos) {
				t.Fatalf("resume info from %v, want %v", got, tc.wantInfos)
			}
			m := r.ma.metrics
			if m.StaleDropped != tc.wantStale || m.LostWorkers != tc.wantLost {
				t.Fatalf("StaleDropped = %d, LostWorkers = %d; want %d, %d", m.StaleDropped, m.LostWorkers, tc.wantStale, tc.wantLost)
			}
			if len(r.ma.theory) != 0 || m.GroundFactsAdopted != 0 {
				t.Fatalf("residue reached the theory: %v (%d adopted)", r.ma.theory, m.GroundFactsAdopted)
			}
			if r.ma.ledgerOf(kindResumeInfo) != nil {
				t.Fatal("resume ledger still open after the collection returned")
			}
		})
	}
}
