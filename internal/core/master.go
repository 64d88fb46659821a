package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/solve"
)

// bagEntry is one rule under consideration by the master, with its
// aggregated (global) coverage.
type bagEntry struct {
	rule logic.Clause
	key  string
	pos  int // aggregate positive cover over all partitions
	neg  int // aggregate negative cover
}

// ErrSuperseded reports that a newer master generation has taken over
// the cluster (DESIGN.md §9): some worker answered a frame of ours with
// kindFenced, or stamped a reply with a generation above ours. The only
// correct reaction is to stand down — the newer master owns the run, and
// a superseded master driving epochs in parallel would fork the theory.
// Callers detect it with errors.Is.
var ErrSuperseded = errors.New("core: master superseded by a newer generation")

// workerLostError aborts the phase that observed a worker failure; the
// epoch loop catches it, recovers the membership and re-issues the epoch.
type workerLostError struct {
	id int
}

func (e *workerLostError) Error() string {
	return fmt.Sprintf("core: master: worker %d lost", e.id)
}

func asWorkerLost(err error) *workerLostError {
	var wl *workerLostError
	if errors.As(err, &wl) {
		return wl
	}
	return nil
}

// master drives the epochs of Fig. 5 as an event-driven state machine:
// every wait is a ledger of the members that still owe a reply, one
// receive path (nextReply) files each reply into the open ledger of its
// kind, stale-epoch traffic is dropped, and a worker failure — delivered
// by the transport as a KindPeerDown membership event — aborts the phase
// so the epoch loop can redistribute the dead worker's examples and
// re-issue the epoch on the survivors. See DESIGN.md §6 for the state
// machine.
type master struct {
	node cluster.Transport
	p    int // initial worker count
	cfg  Config

	// targets is the live membership: surviving worker ids, ascending.
	// It starts as 1..p and shrinks as failures are recovered.
	targets []int

	// epoch is the wire epoch: bumped for every pipeline round and for
	// every recovery re-issue, so anything in flight from an abandoned
	// attempt is recognisably stale. Distinct from Metrics.Epochs, which
	// counts completed logical epochs only.
	epoch int
	// seq numbers the master's outbound protocol messages (one per
	// logical message; broadcast copies share it).
	seq int64
	// gen is this master's generation (DESIGN.md §9): zero for a fresh
	// master, checkpointed generation + 1 for a crash-restarted one.
	// Stamped on every outbound frame; workers fence off frames below
	// their observed generation, and a master that learns of a higher
	// generation fails with ErrSuperseded.
	gen int

	// assignedPos/assignedNeg track, per worker id (1-indexed), the
	// examples the master has handed that worker — initial partition and
	// every redeal's share. The sets are pairwise disjoint.
	// When a worker dies this is what gets redistributed; it may include
	// already-covered positives (the master cannot know local coverage),
	// which survivors simply re-cover.
	assignedPos [][]logic.Term
	assignedNeg [][]logic.Term
	// lostPos/lostNeg hold dead workers' assignments awaiting
	// redistribution.
	lostPos []logic.Term
	lostNeg []logic.Term

	// published is the completed-epoch count of the last Publish call, so
	// boundaries revisited without progress (recovery re-entries) and the
	// final post-loop publish never emit duplicates.
	published int

	// pendingJoin holds worker ids whose transport-level join has
	// completed (a KindPeerUp event arrived, or the simulation spawned
	// them) but that are not yet protocol members; admission — welcome,
	// ring install, first share — happens between epochs (prepEpoch).
	pendingJoin []int
	// bal turns per-worker measured throughput into partition shares; the
	// redeal barrier deals through the sched package it fronts.
	bal *sched.Balancer
	// spawn, when non-nil (simulated runs), creates and starts one fresh
	// worker on the network and returns its node id; cfg.JoinEpochs
	// drives it. Remote joiners arrive through the transport instead.
	spawn      func() int
	spawnFired []bool // one flag per cfg.JoinEpochs entry

	// draining marks the post-stop phase: the result is complete, so a
	// worker death no longer threatens the run — it only forfeits that
	// worker's final report — and is tolerated even when it empties the
	// membership or recovery is off.
	draining bool

	// resumed marks a master rebuilt from a durable checkpoint: run()
	// replaces the initial load with the resume handshake (rejoin wait,
	// state query, rollback barrier). See DESIGN.md §8.
	resumed bool
	// rollbackTo, when non-zero, rides on every kindReassign until a
	// barrier completes: workers discard the effects of every epoch ≥
	// rollbackTo, restoring the checkpoint boundary the resumed master
	// restarted from. Cleared by the first completed barrier (each worker
	// rolls back at most once, so re-issues merge on top).
	rollbackTo int
	// resumeFloor is the epoch of the resume's rollback barrier: stale
	// adoptions from below it are residue of the crashed run whose
	// retractions the rollback un-did, so — unlike ordinary stale
	// adoptions — they must NOT enter the theory. Zero (never resumed)
	// keeps every pre-existing code path unchanged.
	resumeFloor int
	// ckptSeq numbers the next checkpoint snapshot file (continuing the
	// loaded sequence on resume).
	ckptSeq uint64

	// parts, when non-nil, holds the per-worker kindLoad payloads of a
	// remote (multi-process) run; nil selects the simulation's
	// shared-filesystem model where workers were constructed with their
	// partitions and kindLoad is a bare signal.
	parts []loadDataMsg
	// finals collects the workers' kindFinal reports (*finalMsg) of a
	// remote run.
	finals []replyHdr

	// ledgers are the open waits, oldest first, at most one per kind.
	ledgers []*ledger

	theory    []logic.Clause
	metrics   *Metrics
	remaining int
}

// ledger is one master wait as data (DESIGN.md §6 "Ledgers"): which members
// still owe a reply of `kind` — by worker id, or by pipeline origin for
// kindRules — checked against wire epoch `epoch`, and the replies filed so
// far, in arrival order. A phase opens its ledger, sends its request,
// awaits and reads the replies; the ledger closes when the phase returns,
// completed or aborted. nextReply files every reply into the open ledger
// of its kind, whatever phase is waiting. That is what lets the adoption
// wait — the one ledger that outlives its phase — move past the epoch
// boundary when nothing observes it, and what lets a phase abort keep the
// adoptions already filed.
type ledger struct {
	kind    int
	epoch   int
	pending map[int]bool
	replies []replyHdr
}

// waits describes every kind a ledger can be open for: the payload it is
// decoded into, and what waitingFor calls the wait — its phase and what
// is owed.
var waits = map[int]struct {
	phase, owed string
	reply       func() replyHdr
}{
	kindRules:       {"gather", "rules from origins", func() replyHdr { return new(rulesMsg) }},
	kindEvalResult:  {"evaluate", "counts from workers", func() replyHdr { return new(evalResultMsg) }},
	kindGathered:    {"redeal", "alive positives from workers", func() replyHdr { return new(gatheredMsg) }},
	kindReassignAck: {"redeal", "install acks from workers", func() replyHdr { return new(reassignAckMsg) }},
	kindAdopted:     {"adopt", "adoptions(epoch %d) from", func() replyHdr { return new(adoptedMsg) }},
	kindFinal:       {"drain", "final reports from workers", func() replyHdr { return new(finalMsg) }},
	kindResumeInfo:  {"resume", "resume info from workers", func() replyHdr { return new(resumeInfoMsg) }},
}

// open starts a wait for one reply of kind from every live member at the
// current wire epoch.
func (ma *master) open(kind int) *ledger {
	l := &ledger{kind: kind, epoch: ma.epoch, pending: ma.pendingLive()}
	ma.ledgers = append(ma.ledgers, l)
	return l
}

// close ends a wait, completed or not. Closing a closed ledger is a no-op.
func (ma *master) close(l *ledger) {
	ma.ledgers = slices.DeleteFunc(ma.ledgers, func(o *ledger) bool { return o == l })
}

// ledgerOf returns the open ledger of kind, or nil.
func (ma *master) ledgerOf(kind int) *ledger {
	if i := slices.IndexFunc(ma.ledgers, func(l *ledger) bool { return l.kind == kind }); i >= 0 {
		return ma.ledgers[i]
	}
	return nil
}

// await files replies until nobody owes l anything.
func (ma *master) await(l *ledger) error {
	for len(l.pending) > 0 {
		if err := ma.nextReply(); err != nil {
			return err
		}
	}
	return nil
}

// collect is one phase's wait: open a ledger of kind, send the request,
// await every reply and close the ledger. It returns the replies in
// arrival order.
func (ma *master) collect(kind int, request func() error) ([]replyHdr, error) {
	l := ma.open(kind)
	defer ma.close(l)
	if err := request(); err != nil {
		return nil, err
	}
	if err := ma.await(l); err != nil {
		return nil, err
	}
	return l.replies, nil
}

// stamp is the header of the master's next frame.
func (ma *master) stamp() tag {
	ma.seq++
	return tag{Epoch: ma.epoch, Seq: ma.seq, Gen: ma.gen}
}

// isLive reports whether worker id is still a member.
func (ma *master) isLive(id int) bool {
	return slices.Contains(ma.targets, id)
}

// pendingLive returns a fresh pending set over the live membership.
func (ma *master) pendingLive() map[int]bool {
	pending := make(map[int]bool, len(ma.targets))
	for _, k := range ma.targets {
		pending[k] = true
	}
	return pending
}

// send delivers one protocol message to a live worker, treating a peer
// declared dead mid-send as a drop: the matching KindPeerDown event is (or
// will be) in the inbox, and the receive loop recovers from there.
func (ma *master) send(to, kind int, v any) error {
	err := ma.node.Send(to, kind, v)
	if err != nil && errors.Is(err, cluster.ErrPeerDown) {
		return nil
	}
	return err
}

// bcastLive sends one protocol message to every live worker.
func (ma *master) bcastLive(kind int, v any) error {
	for _, k := range ma.targets {
		if err := ma.send(k, kind, v); err != nil {
			return err
		}
	}
	return nil
}

// noteJoin queues a transport-joined worker for protocol admission at the
// next between-epoch point. Duplicates (the simulation both spawns
// directly and delivers a KindPeerUp event) are ignored.
func (ma *master) noteJoin(id int) {
	if id >= 1 && !ma.isLive(id) && !slices.Contains(ma.pendingJoin, id) {
		ma.pendingJoin = append(ma.pendingJoin, id)
	}
}

// dropPendingJoin removes a not-yet-admitted joiner (it died before its
// welcome), reporting whether it was pending. No recovery is needed: the
// joiner held no examples.
func (ma *master) dropPendingJoin(id int) bool {
	i := slices.Index(ma.pendingJoin, id)
	if i >= 0 {
		ma.pendingJoin = slices.Delete(ma.pendingJoin, i, i+1)
	}
	return i >= 0
}

// noteLost removes a worker that failed for cause from the membership,
// strikes it off every open ledger (a lost worker owes nothing) and queues
// its assignment for redistribution. It returns the workerLostError that
// aborts the awaiting phase — none during the drain, whose result is
// complete, or the resume, whose rollback barrier deals the casualty's
// assignment — or a fatal error ending with the cause when the run cannot
// continue: recovery disabled, or no survivors left.
func (ma *master) noteLost(id int, cause error) error {
	if id < 1 || id >= len(ma.assignedPos) || !ma.isLive(id) {
		// Duplicate or out-of-range event; both transports deduplicate,
		// so treat this as a protocol error rather than guessing.
		return fmt.Errorf("core: master: failure event for unknown worker %d", id)
	}
	var stop error
	if !ma.cfg.Recover && !ma.draining {
		stop = fmt.Errorf("core: master: worker %d failed and recovery is disabled (run with Recover to continue on survivors): %s: %v", id, ma.waitingFor(), cause)
	}
	ma.targets = slices.DeleteFunc(ma.targets, func(k int) bool { return k == id })
	ma.metrics.LostWorkers++
	ma.bal.Forget(id)
	ma.lostPos = append(ma.lostPos, ma.assignedPos[id]...)
	ma.lostNeg = append(ma.lostNeg, ma.assignedNeg[id]...)
	ma.assignedPos[id], ma.assignedNeg[id] = nil, nil
	for _, l := range ma.ledgers {
		delete(l.pending, id)
	}
	if ma.draining || stop != nil {
		return stop
	}
	if len(ma.targets) == 0 {
		return fmt.Errorf("core: master: worker %d failed and no workers survive: %v", id, cause)
	}
	if ma.ledgerOf(kindResumeInfo) != nil {
		return nil
	}
	return &workerLostError{id: id}
}

// acceptStale consumes a stale-epoch message. Almost all stale traffic is
// droppable residue of an abandoned epoch attempt, with one exception:
// kindAdopted. An adoption has already retracted the example on the
// worker — exactly like a markCovered — so a reply orphaned by a phase
// abort must still enter the theory, or the example would end up neither
// covered nor adopted. `remaining` is deliberately untouched: a stale
// adopted implies a recovery ran (or is completing), and its ack-count
// rebase is authoritative — the survivor's count already excludes the
// retracted example, while a dead worker's adoptee is redistributed and
// recounted alive (it may then be covered twice; harmless).
func (ma *master) acceptStale(msg cluster.Message) error {
	ma.metrics.StaleDropped++
	if msg.Kind != kindAdopted {
		return nil
	}
	var am adoptedMsg
	if err := msg.Decode(&am); err != nil {
		return fmt.Errorf("core: master: garbled stale adoption from node %d: %w", msg.From, err)
	}
	if am.Epoch < ma.resumeFloor {
		// Residue of a run the master crashed out of: the resume's rollback
		// barrier restored every worker to the checkpoint boundary,
		// un-retracting this adoptee — it is alive again and will be
		// re-covered (or re-adopted) by the re-issued epochs, so admitting
		// it here would fork the theory from the failure-free run.
		return nil
	}
	if am.Ok {
		ma.theory = append(ma.theory, logic.Fact(am.Example))
		ma.metrics.GroundFactsAdopted++
	}
	return nil
}

// onEvent handles a frame about the cluster rather than a phase, and
// reports whether msg was one; nextReply and awaitRejoins share it.
//
//   - KindPeerUp: a transport-level join, only queued — mid-phase the ring
//     is load-bearing, so admission waits for prepEpoch.
//   - KindPeerDown: noteLost, whose workerLostError aborts the awaiting
//     phase so the epoch loop can recover. A joiner that died before its
//     welcome held no examples; an already-excluded member — a sibling's
//     suspicion can beat the master's own link to the same death — is moot.
//   - kindSuspect: a sibling saw a peer die. Link failures are per-link, so
//     a one-sided break (possibly having swallowed an in-flight kindStage)
//     may be visible only to the reporter; ignoring it, the master would
//     wait forever for a pipeline nobody owns. So a live member's report
//     about a live peer goes through noteLost like the master's own event
//     (fail-stop without Recover). Epoch-independent: it is about link
//     state now. While the resume ledger is open it is residue.
//   - kindFenced: a worker has seen a newer master generation. If it really
//     is above ours, we are the zombie side of a healed partition — stand
//     down. (Our own or an older one is a race settled in our favour.)
func (ma *master) onEvent(msg cluster.Message) (bool, error) {
	switch msg.Kind {
	case cluster.KindPeerUp:
		ma.noteJoin(msg.From)
	case cluster.KindPeerDown:
		if !ma.dropPendingJoin(msg.From) && ma.isLive(msg.From) {
			return true, ma.noteLost(msg.From, msg.Cause)
		}
	case kindSuspect:
		if ma.ledgerOf(kindResumeInfo) != nil {
			return false, nil
		}
		var sm suspectMsg
		if err := msg.Decode(&sm); err != nil {
			return true, fmt.Errorf("core: master: garbled suspicion from node %d: %w", msg.From, err)
		}
		if !ma.draining && ma.isLive(sm.Worker) && ma.isLive(sm.Peer) {
			return true, ma.noteLost(sm.Peer, fmt.Errorf("worker %d reports its link to worker %d failed", sm.Worker, sm.Peer))
		} // else moot, or from an excluded (untrusted) reporter
	case kindFenced:
		var fm fencedMsg
		if err := msg.Decode(&fm); err != nil {
			return true, fmt.Errorf("core: master: garbled fence rejection from node %d: %w", msg.From, err)
		}
		if fm.Gen > ma.gen {
			return true, fmt.Errorf("core: master: generation %d fenced off by worker %d at generation %d: %w",
				ma.gen, fm.Worker, fm.Gen, ErrSuperseded)
		}
	default:
		return false, nil
	}
	return true, nil
}

// nextReply is the master's one receive path: it receives frames until it
// has handled one cluster event (onEvent) or filed one reply into the open
// ledger of its kind, checked against that ledger's epoch and pending set.
// Along the way it drops stale-epoch traffic (acceptStale); while the
// resume ledger is open, counts every frame no ledger owes as pre-crash
// residue — the simulated master inherits its predecessor's inbox, and
// the rollback un-does a late adoption's retraction; and fails on
// same-epoch violations (a kind no ledger is open for, duplicates, unknown
// members, garbled payloads) and on a receive failure, naming who owes.
func (ma *master) nextReply() error {
	for {
		msg, err := receiveWithTimeout(ma.node, ma.cfg.RecvTimeout)
		if err != nil {
			return fmt.Errorf("core: master: %s: %w", ma.waitingFor(), err)
		}
		if ok, err := ma.onEvent(msg); ok {
			return err // a death may have settled the wait
		}
		l := ma.ledgerOf(msg.Kind)
		if l == nil {
			if ma.ledgerOf(kindResumeInfo) != nil {
				ma.metrics.StaleDropped++
				continue
			}
			var eo epochOnly
			if err := msg.Decode(&eo); err != nil {
				return fmt.Errorf("core: master: garbled kind-%d payload from node %d: %w", msg.Kind, msg.From, err)
			}
			if eo.Epoch < ma.epoch {
				if err := ma.acceptStale(msg); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("core: master: expected kind %d, got kind %d from node %d (epoch %d)",
				ma.ledgers[len(ma.ledgers)-1].kind, msg.Kind, msg.From, eo.Epoch)
		}
		dst := waits[l.kind].reply()
		if err := msg.Decode(dst); err != nil {
			return fmt.Errorf("core: master: truncated or garbled kind-%d payload from node %d: %w", msg.Kind, msg.From, err)
		}
		hdr, key := dst.tags(), dst.key()
		if hdr.Gen > ma.gen {
			// Replies carry the worker's observed generation, so the news
			// that we were superseded reaches us even if the kindFenced
			// rejection itself was lost.
			return fmt.Errorf("core: master: generation %d superseded by generation %d (reply from node %d): %w",
				ma.gen, hdr.Gen, msg.From, ErrSuperseded)
		}
		if l.kind != kindResumeInfo { // a worker may be ahead of the checkpoint
			if hdr.Epoch < l.epoch {
				if err := ma.acceptStale(msg); err != nil {
					return err
				}
				continue
			}
			if hdr.Epoch > l.epoch {
				return fmt.Errorf("core: master: kind-%d reply from future epoch %d (current %d) from node %d", msg.Kind, hdr.Epoch, l.epoch, msg.From)
			}
		}
		if !l.pending[key] {
			if ma.draining {
				// A member excluded mid-drain: its death can beat its last
				// frame into the inbox, and the drain never bumps the epoch
				// to shield it. The report is forfeited; not stale, moot.
				continue
			}
			return fmt.Errorf("core: master: duplicate or unexpected kind-%d reply for member %d from node %d", msg.Kind, key, msg.From)
		}
		delete(l.pending, key)
		l.replies = append(l.replies, dst)
		return nil
	}
}

// waitingFor names what a blocked receive is owed, for the error a
// deadline or a link failure surfaces: the phase of the newest open
// ledger, how far the run is, and which members still owe which reply,
// newest ledger first — an open adoption ledger included, since its
// replies are filed under other phases.
func (ma *master) waitingFor() string {
	var owed []string
	for i := len(ma.ledgers) - 1; i >= 0; i-- {
		l := ma.ledgers[i]
		if len(l.pending) == 0 {
			continue
		}
		what := waits[l.kind].owed
		if l.kind == kindAdopted {
			what = fmt.Sprintf(what, l.epoch)
		}
		owed = append(owed, fmt.Sprintf("%s %v", what, slices.Sorted(maps.Keys(l.pending))))
	}
	return fmt.Sprintf("%s after %d completed epochs, wire epoch %d: waiting for %s",
		waits[ma.ledgers[len(ma.ledgers)-1].kind].phase, ma.metrics.Epochs, ma.epoch, strings.Join(owed, ", "))
}

// gatherBag starts one pipeline per live worker, collects their results
// and assembles the deduplicated rules bag in deterministic (origin,
// position) order. When the previous epoch's adoption ledger is still open
// (the boundary was idle, so the pipelines were started over it) the
// gather is not complete until the ledger is: the adoptions are settled
// here, before the bag is consumed, which puts them in the theory — and
// off `remaining` — exactly where the barrier would have.
func (ma *master) gatherBag() ([]bagEntry, error) {
	replies, err := ma.collect(kindRules, func() error {
		return ma.bcastLive(kindStartPipeline, startMsg{tag: ma.stamp(), Width: ma.cfg.Width})
	})
	if err != nil {
		return nil, err
	}
	if err := ma.collectAdoptions(); err != nil {
		return nil, err
	}
	byOrigin := make(map[int][]logic.Clause, len(replies))
	for _, r := range replies {
		rm := r.(*rulesMsg)
		byOrigin[rm.Origin] = rm.Rules
	}
	seen := make(map[string]bool)
	var bag []bagEntry
	for _, origin := range ma.targets {
		for _, r := range byOrigin[origin] {
			key := r.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			bag = append(bag, bagEntry{rule: r, key: key})
		}
	}
	return bag, nil
}

// evaluateBag broadcasts the bag for local evaluation and aggregates the
// returned counts into the entries (Fig. 5 steps 10–11 and 18–19).
func (ma *master) evaluateBag(bag []bagEntry) error {
	rules := make([]logic.Clause, len(bag))
	for i := range bag {
		rules[i] = bag[i].rule
	}
	replies, err := ma.collect(kindEvalResult, func() error {
		return ma.bcastLive(kindEvaluate, evaluateMsg{tag: ma.stamp(), Rules: rules})
	})
	if err != nil {
		return err
	}
	for i := range bag {
		bag[i].pos, bag[i].neg = 0, 0
	}
	for _, r := range replies {
		er := r.(*evalResultMsg)
		if len(er.Pos) != len(bag) || len(er.Neg) != len(bag) {
			return fmt.Errorf("core: master: evaluation result size mismatch from worker %d", er.Worker)
		}
		for i := range bag {
			bag[i].pos += int(er.Pos[i])
			bag[i].neg += int(er.Neg[i])
		}
	}
	return nil
}

// filterGood drops rules that are not globally acceptable (notGood of
// Fig. 5 step 20, also applied before the first pick as a progress
// guarantee — an unacceptable first pick could cover zero positives and
// stall the covering loop; see DESIGN.md §5).
func (ma *master) filterGood(bag []bagEntry) []bagEntry {
	out := bag[:0]
	for _, e := range bag {
		if e.pos > 0 && ma.cfg.Search.IsGood(e.pos, e.neg) {
			out = append(out, e)
		}
	}
	return out
}

// better reports whether a (with score sa) outranks b (with score sb)
// under the consumption order (Fig. 5 step 13: global score, then
// coverage, then brevity, then canonical key). The key tie-break makes
// this a strict total order over distinct rules.
func (ma *master) better(a *bagEntry, sa float64, b *bagEntry, sb float64) bool {
	if sa != sb {
		return sa > sb
	}
	if a.pos != b.pos {
		return a.pos > b.pos
	}
	if len(a.rule.Body) != len(b.rule.Body) {
		return len(a.rule.Body) < len(b.rule.Body)
	}
	return a.key < b.key
}

// pickBest removes and returns the best entry by global score. The
// comparator is a strict total order, so a single-pass max — scoring each
// entry once and carrying the incumbent's score — finds the same pick the
// stable sort used to, at O(n) per accepted rule instead of O(n·log n),
// and the consumption sequence is unchanged (pinned by
// TestPickBestMatchesSortReference).
func (ma *master) pickBest(bag []bagEntry) (bagEntry, []bagEntry) {
	score := func(e *bagEntry) float64 {
		return search.Score(e.pos, e.neg)
	}
	best, bestScore := 0, score(&bag[0])
	for i := 1; i < len(bag); i++ {
		if s := score(&bag[i]); ma.better(&bag[i], s, &bag[best], bestScore) {
			best, bestScore = i, s
		}
	}
	picked := bag[best]
	rest := append(bag[:best], bag[best+1:]...)
	return picked, rest
}

// consumeBag implements the sequential consumption loop of Fig. 5 steps
// 12–22: accept the globally best rule, retract its positives everywhere,
// re-evaluate and prune the bag, repeat. It returns how many rules were
// accepted, so the caller can fall back when the whole bag proved globally
// unacceptable.
func (ma *master) consumeBag(bag []bagEntry) (int, error) {
	if err := ma.evaluateBag(bag); err != nil {
		return 0, err
	}
	bag = ma.filterGood(bag)
	accepted := 0
	for len(bag) > 0 {
		var best bagEntry
		best, bag = ma.pickBest(bag)
		ma.theory = append(ma.theory, best.rule)
		ma.metrics.RulesLearned++
		accepted++
		ma.remaining -= best.pos
		if err := ma.bcastLive(kindMarkCovered, markCoveredMsg{tag: ma.stamp(), Rule: best.rule}); err != nil {
			return accepted, err
		}
		if len(bag) == 0 {
			break
		}
		if err := ma.evaluateBag(bag); err != nil {
			return accepted, err
		}
		bag = ma.filterGood(bag)
	}
	return accepted, nil
}

// adoptFallback retires one uncovered positive per worker when an epoch
// yields no acceptable rule, guaranteeing progress. It opens the ledger and
// broadcasts the request; the replies are waited for here only when
// something observes the epoch boundary. Otherwise the next epoch's gather
// collects them, and the round trip overlaps the pipelines' first stage
// instead of idling the whole cluster (DESIGN.md §6).
func (ma *master) adoptFallback() error {
	ma.open(kindAdopted)
	if err := ma.bcastLive(kindAdopt, adoptMsg{tag: ma.stamp()}); err != nil {
		return err
	}
	if ma.boundaryIdle() {
		return nil
	}
	return ma.collectAdoptions()
}

// boundaryIdle reports whether the coming epoch boundary can be skipped
// over with the adoption ledger open: another epoch certainly follows —
// the adoptions retire at most one positive per worker and the epoch cap
// is not next — and nothing reads or reshapes the cluster at the boundary:
// no checkpoint or published snapshot (both must name a settled theory),
// no joiner to admit, no redeal.
func (ma *master) boundaryIdle() bool {
	cfg := &ma.cfg
	if ma.remaining <= len(ma.targets) || ma.metrics.Epochs+1 >= maxEpochs {
		return false
	}
	if cfg.CheckpointDir != "" || cfg.Publish != nil || cfg.Balance || cfg.RepartitionEachEpoch || len(ma.pendingJoin) > 0 {
		return false
	}
	if ma.spawn != nil {
		for i, e := range cfg.JoinEpochs {
			if ma.metrics.Epochs+1 >= e && (ma.spawnFired == nil || !ma.spawnFired[i]) {
				return false // maybeSpawn fires it at this boundary
			}
		}
	}
	return true
}

// collectAdoptions waits until every worker the open adoption ledger names
// has answered, then settles it. A no-op with the ledger closed.
func (ma *master) collectAdoptions() error {
	if l := ma.ledgerOf(kindAdopted); l != nil {
		if err := ma.await(l); err != nil {
			return err
		}
	}
	ma.settleAdoptions()
	return nil
}

// settleAdoptions moves the open ledger's adoptions into the theory, in
// worker order so the theory is deterministic, and closes it. It is also
// what a phase abort calls with replies still owed: an adoption in the
// ledger has already retracted its example on the worker, so it counts
// whether or not the barrier completes — the missing ones arrive stale
// and take acceptStale, and recovery rebases `remaining` from the acks.
func (ma *master) settleAdoptions() {
	l := ma.ledgerOf(kindAdopted)
	if l == nil {
		return
	}
	ma.close(l)
	// Sort by worker for deterministic theory order.
	sort.Slice(l.replies, func(i, j int) bool { return l.replies[i].(*adoptedMsg).Worker < l.replies[j].(*adoptedMsg).Worker })
	adopted := 0
	for _, r := range l.replies {
		am := r.(*adoptedMsg)
		if !am.Ok {
			continue
		}
		ma.theory = append(ma.theory, logic.Fact(am.Example))
		ma.metrics.GroundFactsAdopted++
		ma.remaining--
		adopted++
	}
	if adopted == 0 && len(l.pending) == 0 {
		// Defensive: nothing left anywhere despite remaining > 0.
		ma.remaining = 0
	}
}

// gatherAllAlive runs the kindGather half of a replace redeal: it collects
// every live worker's uncovered positives (pooled in membership order,
// which keeps the deal deterministic) with their cost estimates, and feeds
// any attached throughput reports to the balancer.
func (ma *master) gatherAllAlive() ([]logic.Term, []int64, error) {
	replies, err := ma.collect(kindGathered, func() error {
		return ma.bcastLive(kindGather, gatherMsg{tag: ma.stamp()})
	})
	if err != nil {
		return nil, nil, err
	}
	byWorker := make(map[int]*gatheredMsg, len(replies))
	for _, r := range replies {
		gm := r.(*gatheredMsg)
		byWorker[gm.Worker] = gm
		if gm.BusyNs > 0 && gm.Inferences > 0 {
			ma.bal.Observe(gm.Worker, gm.Inferences, gm.BusyNs)
		}
	}
	var all []logic.Term
	var costs []int64
	for _, k := range ma.targets {
		all = append(all, byWorker[k].Pos...)
		costs = append(costs, byWorker[k].Costs...)
	}
	return all, costs, nil
}

// redeal is the one barrier through which examples change hands between
// pipelines (DESIGN.md §6): bump the wire epoch, so everything in flight
// from the old membership and shares is recognisably stale; deal; send
// every live member the ring and its share in one kindReassign; collect
// every ack, rebasing `remaining` from the reported alive counts. Only
// when it returns does the caller start pipelines, so no worker can see
// new-epoch ring traffic before it runs on the new membership and shares.
//
// What is dealt is the caller's one decision. A merge (replace false)
// deals the dead workers' queued assignments evenly and the survivors add
// them to their partitions. A replace first pools every alive positive
// (kindGather) and deals the pool — by cost and measured throughput under
// Balance, evenly otherwise (the §4.1 alternative: the examples make two
// network trips, exactly the communication cost the paper avoided) — as
// the workers' new positive partitions; negatives never move.
//
// A pending rollback order (ma.rollbackTo, set by a crash-restart resume)
// rides on every install until a barrier completes; each worker applies it
// at most once, so a re-issued barrier merges on top of already-rolled-back
// survivors, matching the append-only bookkeeping here. A death mid-barrier
// is the ordinary workerLostError: noteLost has queued what was tracked for
// the casualty, this barrier's share included, and per-link FIFO puts this
// install ahead of the recovery's on every survivor.
func (ma *master) redeal(replace bool) error {
	ma.epoch++
	pool, n := ma.lostPos, len(ma.targets)
	var costs []int64
	if replace {
		var err error
		if pool, costs, err = ma.gatherAllAlive(); err != nil {
			return err
		}
	}
	var pos [][]logic.Term
	if replace && ma.cfg.Balance {
		pos = sched.DealByCost(pool, costs, ma.bal.Weights(ma.targets))
	} else {
		pos = sched.DealEven(pool, n)
	}
	neg := sched.DealEven(ma.lostNeg, n) // nothing is lost when a replace runs
	ma.lostPos, ma.lostNeg = nil, nil
	dealt := 0
	for _, share := range pos {
		dealt += len(share)
	}
	if dealt != len(pool) {
		return fmt.Errorf("core: master: redeal at epoch %d dealt %d of %d pooled positives", ma.epoch, dealt, len(pool))
	}
	members := append([]int(nil), ma.targets...)
	hdr := ma.stamp() // one install, one Seq
	acks, err := ma.collect(kindReassignAck, func() error {
		for i, k := range ma.targets {
			if replace {
				// Covered positives were gathered out, so the tracked
				// assignment tightens to the dealt share.
				ma.assignedPos[k] = pos[i]
			} else {
				ma.assignedPos[k] = append(ma.assignedPos[k], pos[i]...)
				ma.assignedNeg[k] = append(ma.assignedNeg[k], neg[i]...)
			}
			rm := reassignMsg{tag: hdr, Members: members, Pos: pos[i], Neg: neg[i], Replace: replace, RollbackBelow: ma.rollbackTo}
			if err := ma.send(k, kindReassign, rm); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	alive := 0
	for _, r := range acks {
		// The tracked assignment: a worker holds nothing the master did not
		// hand it, and right after a replace exactly its share, all alive.
		ack := r.(*reassignAckMsg)
		if held := len(ma.assignedPos[ack.Worker]); ack.Alive > held || replace && ack.Alive != held {
			return fmt.Errorf("core: master: worker %d acked %d alive positives at epoch %d, the ledger tracks %d (replace=%v)",
				ack.Worker, ack.Alive, ma.epoch, held, replace)
		}
		alive += ack.Alive
	}
	ma.remaining = alive
	ma.rollbackTo = 0
	return nil
}

// recoverMembership installs the surviving membership: a merge redeal of
// whatever the dead workers held — nothing, for the rollback barrier of a
// resume. A failure during the barrier re-issues it with the additional
// casualty folded in.
func (ma *master) recoverMembership() error {
	for {
		if err := ma.redeal(false); asWorkerLost(err) == nil {
			return err
		}
	}
}

// awaitRejoins waits for every checkpointed member to re-establish its
// master link after a crash-restart (netcluster: the workers redial the
// resumed listener and surface as KindPeerUp events). Members that miss
// the window are declared lost — their assignment redistributes through
// the same rollback barrier the survivors get. On transports without
// per-peer links (the simulated machine, where the restarted master takes
// over the same always-connected node) there is nothing to wait for.
func (ma *master) awaitRejoins() error {
	lp, ok := as[linkProber](ma.node)
	if !ok {
		return nil
	}
	wait := ma.cfg.RecvTimeout
	if wait <= 0 {
		wait = resumeWindow
	}
	deadline := time.Now().Add(wait)
	for {
		absent := slices.DeleteFunc(slices.Clone(ma.targets), lp.Linked)
		if len(absent) == 0 {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			for _, k := range absent {
				if err := ma.noteLost(k, fmt.Errorf("no rejoin within %s", wait)); err != nil {
					return fmt.Errorf("core: master: resume: worker %d never rejoined: %w", k, err)
				}
			}
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), remain)
		msg, err := ma.node.ReceiveCtx(ctx)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				continue // re-check the deadline, then give up on absentees
			}
			return fmt.Errorf("core: master: resume: waiting for rejoins: %w", err)
		}
		// A KindPeerUp is a rejoining member (already live — noteJoin
		// ignores it; the Linked probe sees the fresh link) or a brand-new
		// joiner.
		if ok, err := ma.onEvent(msg); !ok {
			ma.metrics.StaleDropped++ // pre-crash residue
		} else if err != nil {
			return err
		}
	}
}

// resumeWindow bounds a resumed master's rejoin wait when no RecvTimeout is
// set, and is how long a checkpointing master's orphaned workers redial it
// (loadSettings): each side waits as long as the other.
const resumeWindow = 60 * time.Second

// queryResume is the resume ledger (DESIGN.md §8): it opens before the
// rejoin wait and closes once every live member has said where it stands
// (kindResumeQuery → kindResumeInfo). Three rules set it apart. It has no
// epoch check, because a worker may be ahead of the checkpoint. While it is
// open, every frame no ledger owes is pre-crash residue (nextReply). And a
// pending worker's death strikes the worker off instead of aborting the
// resume: the rollback barrier deals its assignment.
func (ma *master) queryResume() (map[int]*resumeInfoMsg, error) {
	l := ma.open(kindResumeInfo)
	defer ma.close(l)
	if err := ma.awaitRejoins(); err != nil {
		return nil, err
	}
	if err := ma.bcastLive(kindResumeQuery, resumeQueryMsg{tag: ma.stamp()}); err != nil {
		return nil, err
	}
	if err := ma.await(l); err != nil {
		return nil, err
	}
	infos := make(map[int]*resumeInfoMsg, len(l.replies))
	for _, r := range l.replies {
		im := r.(*resumeInfoMsg)
		infos[im.Worker] = im
	}
	return infos, nil
}

// resumeCluster is the crash-restart handshake, replacing the initial
// load on a resumed master: wait for the checkpointed members to rejoin,
// ask each where it stands, re-ship the partition to remote workers the
// crash caught before their first load, fast-forward the epoch clock past
// everything any worker saw, and run the rollback barrier — every
// survivor restores its checkpoint-boundary snapshot, discarding the
// crashed epoch's partial work, and re-acks its alive count. From there
// the ordinary epoch loop re-issues the in-flight epoch and the run is on
// rails again; determinism makes the remainder identical to a run that
// never crashed.
func (ma *master) resumeCluster() error {
	boundary := ma.epoch // the checkpointed, completed epoch
	infos, err := ma.queryResume()
	if err != nil {
		return err
	}
	maxEpoch := ma.epoch
	for _, im := range infos {
		if im.Epoch > maxEpoch {
			maxEpoch = im.Epoch
		}
		ma.metrics.OrphanReconnects += im.Reconnects
	}
	if ma.parts != nil {
		// A crash during the initial load leaves remote workers without a
		// partition; re-ship it (the load precedes the rollback install on
		// the same ordered link, so ordering holds).
		for _, k := range ma.targets {
			if im := infos[k]; im == nil || im.Loaded {
				continue
			}
			lm := ma.cfg.loadSettings()
			lm.Gen = ma.gen
			lm.Pos = ma.assignedPos[k]
			lm.Neg = ma.assignedNeg[k]
			if err := ma.send(k, kindLoad, lm); err != nil {
				return err
			}
		}
	}
	ma.epoch = maxEpoch
	ma.rollbackTo = boundary + 1
	ma.resumeFloor = maxEpoch + 1
	return ma.recoverMembership()
}

// maybeSpawn fires the cfg.JoinEpochs schedule (simulated runs): each
// unconsumed entry ≤ the completed-epoch count spawns one fresh worker and
// queues it for admission.
func (ma *master) maybeSpawn() {
	if ma.spawn == nil {
		return
	}
	if ma.spawnFired == nil {
		ma.spawnFired = make([]bool, len(ma.cfg.JoinEpochs))
	}
	for i, e := range ma.cfg.JoinEpochs {
		if ma.spawnFired[i] || ma.metrics.Epochs < e {
			continue
		}
		ma.spawnFired[i] = true
		ma.noteJoin(ma.spawn())
	}
}

// admitJoiners grows the membership by every pending joiner and sends each
// its kindWelcome: the ring and, on a remote run, everything kindLoad would
// have carried minus the partition (simulated joiners are constructed with
// their configuration). It returns the admitted ids, ascending; their first
// shares arrive in the redeal the caller runs next, on the same ordered
// link.
func (ma *master) admitJoiners() ([]int, error) {
	joiners := ma.pendingJoin
	ma.pendingJoin = nil
	sort.Ints(joiners)
	for _, id := range joiners {
		for id >= len(ma.assignedPos) {
			ma.assignedPos = append(ma.assignedPos, nil)
			ma.assignedNeg = append(ma.assignedNeg, nil)
		}
		ma.targets = append(ma.targets, id)
		ma.metrics.JoinedWorkers++
	}
	sort.Ints(ma.targets)
	members := append([]int(nil), ma.targets...)
	var load loadDataMsg
	if ma.parts != nil {
		load = ma.cfg.loadSettings()
	}
	for _, id := range joiners {
		wm := welcomeMsg{tag: ma.stamp(), Members: members, Load: load}
		if err := ma.send(id, kindWelcome, wm); err != nil {
			return nil, err
		}
	}
	return joiners, nil
}

// prepEpoch runs the between-epoch membership work: spawn scheduled
// simulated joiners, admit pending joiners, and run the one replace redeal
// the boundary calls for — to shed examples onto joiners, to skew shares
// toward measured throughput (Balance), or because per-epoch repartition
// is configured. Default-off runs with no joiners do nothing here, which
// is what keeps them byte-identical to the pre-elastic engine.
func (ma *master) prepEpoch() error {
	ma.maybeSpawn()
	joiners, err := ma.admitJoiners()
	if err != nil {
		return err
	}
	if len(joiners) == 0 && (ma.metrics.Epochs == 0 || !ma.cfg.Balance && !ma.cfg.RepartitionEachEpoch) {
		return nil
	}
	if err := ma.redeal(true); err != nil {
		return err
	}
	// Only a completed barrier records its deals: an admission aborted by
	// a concurrent death falls into recovery, whose install merges on top
	// of the shares sent above — recording them at send time would report
	// sizes the joiner no longer holds.
	for _, id := range joiners {
		ma.metrics.JoinShares = append(ma.metrics.JoinShares, len(ma.assignedPos[id]))
	}
	ma.metrics.Rebalances++
	return nil
}

// stopJoiners releases joiners that arrived too late to be admitted: they
// hold no examples, so the result is complete without them, but a worker
// blocked waiting for its welcome must still be told the run is over.
// Best-effort — a joiner that died meanwhile is simply skipped.
func (ma *master) stopJoiners() {
	for _, id := range ma.pendingJoin {
		ma.send(id, kindStop, stopMsg{Gen: ma.gen})
	}
	ma.pendingJoin = nil
}

// runEpoch runs one logical epoch on the current membership: one pipeline
// per live worker, bag consumption, and the progress fallback. A
// workerLostError from any phase aborts the attempt before Metrics.Epochs
// is counted; run() then recovers and re-issues.
func (ma *master) runEpoch() error {
	ma.epoch++
	bag, err := ma.gatherBag()
	if err != nil {
		return err
	}
	accepted := 0
	if len(bag) > 0 {
		if accepted, err = ma.consumeBag(bag); err != nil {
			return err
		}
	}
	// Progress guarantee: an epoch whose bag was empty — or globally
	// all-unacceptable — retires one uncovered positive per worker.
	if accepted == 0 && ma.remaining > 0 {
		if err := ma.adoptFallback(); err != nil {
			return err
		}
	}
	ma.metrics.Epochs++
	return nil
}

// maybePublish hands the theory-so-far to the configured publish hook at a
// completed-epoch boundary. It is a no-op without a hook, before the first
// completed epoch, and at boundaries already published.
func (ma *master) maybePublish() error {
	if ma.cfg.Publish == nil || ma.metrics.Epochs == 0 || ma.metrics.Epochs == ma.published {
		return nil
	}
	theory := append([]logic.Clause(nil), ma.theory...)
	if err := ma.cfg.Publish(ma.metrics.Epochs, theory); err != nil {
		return fmt.Errorf("publish after epoch %d: %w", ma.metrics.Epochs, err)
	}
	ma.published = ma.metrics.Epochs
	return nil
}

// run executes the epochs until every positive is covered (Fig. 5),
// recovering from worker failures when configured.
func (ma *master) run() error {
	if ma.resumed {
		// Crash-restart: the cluster already holds (post-crash) state; the
		// resume handshake rolls everyone back to the checkpoint boundary
		// in place of the initial load.
		if err := ma.resumeCluster(); err != nil {
			return err
		}
	} else {
		// Snapshot before the first wire op: a durable master is resumable
		// from the instant it starts, including a crash mid-load (workers
		// the load never reached report Loaded=false and get it re-shipped).
		if err := ma.maybeCheckpoint(); err != nil {
			return err
		}
		if ma.parts != nil {
			// Remote workers have no shared filesystem: each load ships the
			// worker's partition (and the semantics-bearing settings).
			for i, k := range ma.targets {
				if err := ma.send(k, kindLoad, ma.parts[i]); err != nil {
					return err
				}
			}
		} else if err := ma.bcastLive(kindLoad, loadMsg{}); err != nil {
			return err
		}
	}
	for ma.remaining > 0 && ma.metrics.Epochs < maxEpochs {
		// The loop top is the only place the whole cluster is quiescent at a
		// completed epoch — the one state a snapshot can name. Serving
		// snapshots publish from the same boundary.
		if err := ma.maybeCheckpoint(); err != nil {
			return err
		}
		if err := ma.maybePublish(); err != nil {
			return err
		}
		err := ma.prepEpoch()
		if err == nil {
			err = ma.runEpoch()
		}
		if err == nil {
			continue
		}
		if asWorkerLost(err) == nil {
			return err
		}
		ma.settleAdoptions()
		if err := ma.recoverMembership(); err != nil {
			return err
		}
		ma.metrics.Recoveries++
	}
	// The final theory completed after the last boundary the loop top saw;
	// publish it before the cluster is told to stop.
	if err := ma.maybePublish(); err != nil {
		return err
	}
	ma.draining = true
	if err := ma.bcastLive(kindStop, stopMsg{Gen: ma.gen}); err != nil {
		return err
	}
	ma.stopJoiners()
	if ma.parts == nil {
		return nil
	}
	// Remote runs: collect the workers' final reports (work totals,
	// clocks, outgoing traffic) — the data Learn reads off the worker
	// structs directly in the simulation. A worker dying after its stop
	// forfeits its report; the run result is already complete.
	l := ma.open(kindFinal)
	defer ma.close(l)
	if err := ma.await(l); err != nil {
		return err
	}
	ma.finals = l.replies
	// Joiners whose KindPeerUp only surfaced during the drain still need
	// their stop.
	ma.stopJoiners()
	return nil
}

// newMaster wires a master over a transport for p workers, tracking the
// given initial assignments (index k-1 holds worker k's examples).
func newMaster(node cluster.Transport, p int, cfg Config, metrics *Metrics, nPos int, posParts, negParts [][]logic.Term) *master {
	ma := &master{
		node:        node,
		p:           p,
		cfg:         cfg,
		metrics:     metrics,
		remaining:   nPos,
		bal:         sched.NewBalancer(),
		assignedPos: make([][]logic.Term, p+1),
		assignedNeg: make([][]logic.Term, p+1),
	}
	for k := 1; k <= p; k++ {
		ma.targets = append(ma.targets, k)
		ma.assignedPos[k] = posParts[k-1]
		ma.assignedNeg[k] = negParts[k-1]
	}
	return ma
}

// Learn runs p²-mdie over the background kb and the labelled examples under
// the mode set ms. It returns the learned theory plus run metrics; the
// simulated cluster makespan in Metrics.VirtualTime is the paper-comparable
// execution time.
func Learn(kb *solve.KB, pos, neg []logic.Term, ms *mode.Set, cfg Config) (*Metrics, error) {
	cfg = cfg.withDefaults()
	p := cfg.Workers
	if p < 1 {
		return nil, fmt.Errorf("core: Workers must be ≥ 1, got %d", p)
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("core: no positive examples")
	}
	if cfg.CheckpointDir != "" && cfg.Fingerprint == 0 {
		cfg.Fingerprint = Fingerprint(kb, pos, neg)
	}

	// Fig. 5 step 2: random even partition of E+ and E−.
	posParts, negParts := splitExamples(pos, neg, p, cfg.Seed)

	nw := cluster.NewNetwork(p+1, cfg.Cost)
	if cfg.Trace != nil {
		nw.SetTrace(cfg.Trace)
	}

	workers := make([]*worker, p)
	for k := 1; k <= p; k++ {
		workers[k-1] = newWorker(k, p, nw.Node(k), kb, search.NewExamples(posParts[k-1], negParts[k-1]), ms, cfg)
	}

	metrics := &Metrics{Workers: p, Width: cfg.Width}
	ma := newMaster(nw.Node(0), p, cfg, metrics, len(pos), posParts, negParts)

	start := time.Now()
	errCh := make(chan error, p+1+len(cfg.JoinEpochs))
	var wg sync.WaitGroup
	startWorker := func(w *worker) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A failing worker must surface at the master, not hang it
			// forever (or, unrecovered, kill the whole process): convert
			// panics to errors, then either crash just this node (recovery
			// takes over) or shut the whole network down (the historical
			// fail-stop contract).
			fail := func(err error) {
				errCh <- err
				if cfg.Recover {
					nw.Kill(w.id)
				} else {
					nw.Shutdown()
				}
			}
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("core: worker %d panicked: %v", w.id, r))
				}
			}()
			if err := w.run(); err != nil {
				fail(err)
			}
		}()
	}
	for _, w := range workers {
		startWorker(w)
	}
	if len(cfg.JoinEpochs) > 0 {
		// The cfg.JoinEpochs schedule: spawn a fresh node on the running
		// network, start its worker with an empty partition (the share
		// arrives through the redeal barrier), and hand the id to the
		// master. Called from the master's own goroutine, so appending to
		// workers is race-free and the totals below see every joiner.
		ma.spawn = func() int {
			node := nw.Spawn()
			w := newWorker(node.ID(), p, node, kb, search.NewExamples(nil, nil), ms, cfg)
			workers = append(workers, w)
			startWorker(w)
			return node.ID()
		}
	}
	masterErr := ma.run()
	if masterErr != nil {
		nw.Shutdown()
	}
	wg.Wait()
	close(errCh)
	// A worker failure shuts the network down and surfaces at the master as
	// a shutdown error; report the root cause in preference. Under
	// recovery, worker failures the master survived are part of a
	// successful run — counted in Metrics.LostWorkers and kept readable in
	// Metrics.WorkerErrors, so a genuine worker-side bug is not silently
	// laundered into an anonymous crash.
	for err := range errCh {
		if err == nil {
			continue
		}
		if cfg.Recover && masterErr == nil {
			metrics.WorkerErrors = append(metrics.WorkerErrors, err.Error())
			continue
		}
		return nil, err
	}
	if masterErr != nil {
		return nil, masterErr
	}

	metrics.Theory = ma.theory
	metrics.WallTime = time.Since(start)
	metrics.VirtualTime = nw.Makespan().Duration()
	metrics.Traffic = nw.Traffic()
	metrics.CommBytes = metrics.Traffic.TotalBytes()
	metrics.CommMessages = metrics.Traffic.TotalMsgs()
	// Every worker goroutine has exited (wg.Wait above), so reading totals
	// is race-free — including workers lost and recovered around, whose
	// partial work still happened and still counts.
	for _, w := range workers {
		metrics.TotalInferences += w.totalInf()
		metrics.GeneratedRules += w.generated
		metrics.FencedFrames += w.fenced
	}
	return metrics, nil
}
