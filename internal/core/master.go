package core

import (
	"context"
	"errors"
	"fmt"
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
// one receive loop (nextReply) dispatches on message kind, every phase
// tracks which members still owe a current-epoch reply, stale-epoch
// traffic is dropped, and a worker failure — delivered by the transport
// as a KindPeerDown membership event — aborts the phase so the epoch loop
// can redistribute the dead worker's examples and re-issue the epoch on
// the survivors. See DESIGN.md §6 for the state machine.
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
	// finals collects the workers' kindFinal reports of a remote run.
	finals []finalMsg

	// adopting is the open adoption ledger (nil between fallbacks): the
	// kindAdopt broadcast is out and not every kindAdopted is in yet. See
	// adoptLedger.
	adopting *adoptLedger

	theory    []logic.Clause
	metrics   *Metrics
	remaining int
}

// adoptLedger is the adoption barrier as data: which workers still owe a
// kindAdopted for the fallback broadcast at wire epoch `epoch`, and what
// the others answered. Keeping it on the master rather than on a phase's
// stack is what lets the wait move — when nothing observes the epoch
// boundary the next pipeline starts while the ledger is still open, and
// nextReply files the replies under whatever phase is running (DESIGN.md
// §6) — and what lets a phase abort keep the adoptions it already holds.
type adoptLedger struct {
	epoch   int
	pending map[int]bool
	replies []adoptedMsg
}

func (ma *master) nextSeq() int64 {
	ma.seq++
	return ma.seq
}

// isLive reports whether worker id is still a member.
func (ma *master) isLive(id int) bool {
	for _, k := range ma.targets {
		if k == id {
			return true
		}
	}
	return false
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
	if id < 1 || ma.isLive(id) {
		return
	}
	for _, j := range ma.pendingJoin {
		if j == id {
			return
		}
	}
	ma.pendingJoin = append(ma.pendingJoin, id)
}

// dropPendingJoin removes a not-yet-admitted joiner (it died before its
// welcome), reporting whether it was pending. No recovery is needed: the
// joiner held no examples.
func (ma *master) dropPendingJoin(id int) bool {
	for i, j := range ma.pendingJoin {
		if j == id {
			ma.pendingJoin = append(ma.pendingJoin[:i], ma.pendingJoin[i+1:]...)
			return true
		}
	}
	return false
}

// noteLost removes a failed worker from the membership and queues its
// assignment for redistribution. It returns an error when the run cannot
// continue: recovery disabled, or no survivors left.
func (ma *master) noteLost(id int) error {
	if id < 1 || id >= len(ma.assignedPos) || !ma.isLive(id) {
		// Duplicate or out-of-range event; both transports deduplicate,
		// so treat this as a protocol error rather than guessing.
		return fmt.Errorf("core: master: failure event for unknown worker %d", id)
	}
	live := ma.targets[:0]
	for _, k := range ma.targets {
		if k != id {
			live = append(live, k)
		}
	}
	ma.targets = live
	ma.metrics.LostWorkers++
	ma.bal.Forget(id)
	ma.lostPos = append(ma.lostPos, ma.assignedPos[id]...)
	ma.lostNeg = append(ma.lostNeg, ma.assignedNeg[id]...)
	ma.assignedPos[id], ma.assignedNeg[id] = nil, nil
	if ma.draining {
		return nil
	}
	if !ma.cfg.Recover {
		return fmt.Errorf("core: master: worker %d failed and recovery is disabled (run with Recover to continue on survivors)", id)
	}
	if len(ma.targets) == 0 {
		return fmt.Errorf("core: master: worker %d failed and no workers survive", id)
	}
	return nil
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

// nextReply is the master's event dispatch: it returns the next
// current-epoch reply of kind want whose key (worker id, or pipeline
// origin for kindRules) is still pending, decoded into a payload from
// newDst, and removes the key from pending. Along the way it
//
//   - converts KindPeerDown membership events into a workerLostError
//     (after updating the membership), so the caller's phase aborts and
//     the epoch loop can recover;
//   - files kindAdopted replies of an open adoption ledger into it under
//     the ledger's own epoch and pending set, whatever the caller waits
//     for (a caller waiting for kindAdopted gets them returned as well);
//   - silently drops stale-epoch traffic of any kind — the residue of an
//     abandoned epoch attempt (counted in Metrics.StaleDropped);
//   - fails on same-epoch protocol violations: unexpected kinds,
//     duplicate replies, replies from unknown members, garbled payloads.
func (ma *master) nextReply(want int, pending map[int]bool, newDst func() replyHdr) (replyHdr, error) {
	for {
		msg, err := receiveWithTimeout(ma.node, ma.cfg.RecvTimeout)
		if err != nil {
			return nil, fmt.Errorf("core: master: %s: %w", ma.waitingFor(want, pending), err)
		}
		if msg.Kind == cluster.KindPeerUp {
			// A worker joined at the transport level. Admission waits for
			// the next between-epoch point (prepEpoch): mid-phase the ring
			// is load-bearing, so the joiner is only queued here — no
			// phase abort, unlike a death.
			ma.noteJoin(msg.From)
			continue
		}
		if msg.Kind == cluster.KindPeerDown {
			if ma.dropPendingJoin(msg.From) {
				// A joiner died before its welcome: it held no examples,
				// so nothing needs recovering.
				continue
			}
			if !ma.isLive(msg.From) {
				// Already excluded — a sibling's suspicion can beat the
				// master's own link failure to the same death.
				continue
			}
			if err := ma.noteLost(msg.From); err != nil {
				return nil, err
			}
			return nil, &workerLostError{id: msg.From}
		}
		if msg.Kind == kindSuspect {
			// A worker's transport observed a sibling die. Usually the
			// master's own link noticed first and the peer is already
			// excluded; but link failures are per-link, so a one-sided
			// break (possibly having swallowed an in-flight kindStage)
			// may be visible only to the reporter — without acting on it
			// the master would wait forever for a pipeline nobody owns.
			// Epoch-independent: the observation is about link state now.
			var sm suspectMsg
			if err := msg.Decode(&sm); err != nil {
				return nil, fmt.Errorf("core: master: garbled suspicion from node %d: %w", msg.From, err)
			}
			if !ma.cfg.Recover || ma.draining || !ma.isLive(sm.Worker) || !ma.isLive(sm.Peer) {
				continue // moot, or from an excluded (untrusted) reporter
			}
			if err := ma.noteLost(sm.Peer); err != nil {
				return nil, err
			}
			return nil, &workerLostError{id: sm.Peer}
		}
		if msg.Kind == kindFenced {
			// A worker refused one of our frames: it has seen a newer
			// master generation. If its generation really is above ours,
			// we are the zombie side of a healed partition — stand down.
			// (A rejection quoting our own or an older generation is
			// residue of a race already settled in our favour.)
			var fm fencedMsg
			if err := msg.Decode(&fm); err != nil {
				return nil, fmt.Errorf("core: master: garbled fence rejection from node %d: %w", msg.From, err)
			}
			if fm.Gen > ma.gen {
				return nil, fmt.Errorf("core: master: generation %d fenced off by worker %d at generation %d: %w",
					ma.gen, fm.Worker, fm.Gen, ErrSuperseded)
			}
			continue
		}
		// What a reply is checked against: the caller's phase, or — for a
		// kindAdopted while the ledger is open — the ledger, whose epoch
		// may be one behind the wire epoch by now.
		epochWant, owed, mk := ma.epoch, pending, newDst
		var led *adoptLedger
		if msg.Kind == kindAdopted {
			led = ma.adopting
		}
		if led != nil {
			epochWant, owed, mk = led.epoch, led.pending, func() replyHdr { return new(adoptedMsg) }
		} else if msg.Kind != want {
			var eo epochOnly
			if err := msg.Decode(&eo); err != nil {
				return nil, fmt.Errorf("core: master: garbled kind-%d payload from node %d: %w", msg.Kind, msg.From, err)
			}
			if eo.Epoch < ma.epoch {
				if err := ma.acceptStale(msg); err != nil {
					return nil, err
				}
				continue
			}
			return nil, fmt.Errorf("core: master: expected kind %d, got kind %d from node %d (epoch %d)", want, msg.Kind, msg.From, eo.Epoch)
		}
		dst := mk()
		if err := msg.Decode(dst); err != nil {
			return nil, fmt.Errorf("core: master: truncated or garbled kind-%d payload from node %d: %w", msg.Kind, msg.From, err)
		}
		if gc, ok := dst.(genCarrier); ok && gc.gen() > ma.gen {
			// Replies carry the worker's observed generation, so the news
			// that we were superseded reaches us even if the kindFenced
			// rejection itself was lost.
			return nil, fmt.Errorf("core: master: generation %d superseded by generation %d (reply from node %d): %w",
				ma.gen, gc.gen(), msg.From, ErrSuperseded)
		}
		epoch, key := dst.hdr()
		if epoch < epochWant {
			if err := ma.acceptStale(msg); err != nil {
				return nil, err
			}
			continue
		}
		if epoch > epochWant {
			return nil, fmt.Errorf("core: master: kind-%d reply from future epoch %d (current %d) from node %d", msg.Kind, epoch, epochWant, msg.From)
		}
		if !owed[key] {
			if ma.draining {
				// A reply from a member excluded mid-drain: its death
				// event can win the race into the inbox against its last
				// frame (two transport goroutines feed it). The run is
				// complete; the report is simply forfeited. Draining is
				// the one phase that never bumps the epoch, so the stale
				// check above cannot shield it. Not counted as stale —
				// the message is current-epoch, just moot.
				continue
			}
			return nil, fmt.Errorf("core: master: duplicate or unexpected kind-%d reply for member %d from node %d", msg.Kind, key, msg.From)
		}
		delete(owed, key)
		if led != nil {
			led.replies = append(led.replies, *dst.(*adoptedMsg))
			if want != kindAdopted {
				continue
			}
		}
		return dst, nil
	}
}

// waitingFor names what a blocked receive is owed, for the error a
// deadline or a link failure surfaces: the phase, how far the run is, and
// which members still owe which reply — an open adoption ledger included,
// since its replies are collected under other phases.
func (ma *master) waitingFor(want int, pending map[int]bool) string {
	phase, what := "drain", "final reports from workers"
	switch want {
	case kindRules:
		phase, what = "gather", "rules from origins"
	case kindEvalResult:
		phase, what = "evaluate", "counts from workers"
	case kindGathered:
		phase, what = "redeal", "alive positives from workers"
	case kindReassignAck:
		phase, what = "redeal", "install acks from workers"
	case kindAdopted:
		phase, what = "adopt", ""
	}
	var owed []string
	if what != "" && len(pending) > 0 {
		owed = append(owed, fmt.Sprintf("%s %v", what, sortedKeys(pending)))
	}
	if led := ma.adopting; led != nil && len(led.pending) > 0 {
		owed = append(owed, fmt.Sprintf("adoptions(epoch %d) from %v", led.epoch, sortedKeys(led.pending)))
	}
	return fmt.Sprintf("%s after %d completed epochs, wire epoch %d: waiting for %s",
		phase, ma.metrics.Epochs, ma.epoch, strings.Join(owed, ", "))
}

func sortedKeys(set map[int]bool) []int {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// gatherBag collects the live pipelines' results and assembles the
// deduplicated rules bag in deterministic (origin, position) order. When
// the previous epoch's adoption ledger is still open (the boundary was
// idle, so the pipelines were started over it) the gather is not complete
// until the ledger is: the adoptions are settled here, before the bag is
// consumed, which puts them in the theory — and off `remaining` — exactly
// where the barrier would have.
func (ma *master) gatherBag() ([]bagEntry, error) {
	pending := ma.pendingLive()
	byOrigin := make(map[int][]logic.Clause, len(pending))
	for len(pending) > 0 {
		r, err := ma.nextReply(kindRules, pending, func() replyHdr { return new(rulesMsg) })
		if err != nil {
			return nil, err
		}
		rm := r.(*rulesMsg)
		byOrigin[rm.Origin] = rm.Rules
	}
	if err := ma.collectAdoptions(); err != nil {
		return nil, err
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
	if err := ma.bcastLive(kindEvaluate, evaluateMsg{Epoch: ma.epoch, Seq: ma.nextSeq(), Gen: ma.gen, Rules: rules}); err != nil {
		return err
	}
	for i := range bag {
		bag[i].pos, bag[i].neg = 0, 0
	}
	pending := ma.pendingLive()
	for len(pending) > 0 {
		r, err := ma.nextReply(kindEvalResult, pending, func() replyHdr { return new(evalResultMsg) })
		if err != nil {
			return err
		}
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
		return ma.cfg.Search.Score(e.pos, e.neg, len(e.rule.Body))
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
		if err := ma.bcastLive(kindMarkCovered, markCoveredMsg{Epoch: ma.epoch, Seq: ma.nextSeq(), Gen: ma.gen, Rule: best.rule}); err != nil {
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
// yields no acceptable rule, guaranteeing progress. It broadcasts the
// request and opens the ledger; the replies are waited for here only when
// something observes the epoch boundary. Otherwise the next epoch's gather
// collects them, and the round trip overlaps the pipelines' first stage
// instead of idling the whole cluster (DESIGN.md §6).
func (ma *master) adoptFallback() error {
	if err := ma.bcastLive(kindAdopt, adoptMsg{Epoch: ma.epoch, Seq: ma.nextSeq(), Gen: ma.gen}); err != nil {
		return err
	}
	ma.adopting = &adoptLedger{epoch: ma.epoch, pending: ma.pendingLive()}
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
	if ma.remaining <= len(ma.targets) || ma.metrics.Epochs+1 >= cfg.MaxEpochs {
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

// collectAdoptions waits until every worker the open ledger names has
// answered, then settles it. A no-op with the ledger closed.
func (ma *master) collectAdoptions() error {
	led := ma.adopting
	if led == nil {
		return nil
	}
	for len(led.pending) > 0 {
		// The ledger supplies the pending set and the payload type.
		if _, err := ma.nextReply(kindAdopted, nil, nil); err != nil {
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
	led := ma.adopting
	if led == nil {
		return
	}
	ma.adopting = nil
	// Sort by worker for deterministic theory order.
	sort.Slice(led.replies, func(i, j int) bool { return led.replies[i].Worker < led.replies[j].Worker })
	adopted := 0
	for _, am := range led.replies {
		if !am.Ok {
			continue
		}
		ma.theory = append(ma.theory, logic.Fact(am.Example))
		ma.metrics.GroundFactsAdopted++
		ma.remaining--
		adopted++
	}
	if adopted == 0 && len(led.pending) == 0 {
		// Defensive: nothing left anywhere despite remaining > 0.
		ma.remaining = 0
	}
}

// gatherAllAlive runs the kindGather half of a replace redeal: it collects
// every live worker's uncovered positives (pooled in membership order,
// which keeps the deal deterministic) with their cost estimates, and feeds
// any attached throughput reports to the balancer.
func (ma *master) gatherAllAlive() ([]logic.Term, []int64, error) {
	if err := ma.bcastLive(kindGather, gatherMsg{Epoch: ma.epoch, Seq: ma.nextSeq(), Gen: ma.gen}); err != nil {
		return nil, nil, err
	}
	byWorker := make(map[int]*gatheredMsg, len(ma.targets))
	pending := ma.pendingLive()
	for len(pending) > 0 {
		r, err := ma.nextReply(kindGathered, pending, func() replyHdr { return new(gatheredMsg) })
		if err != nil {
			return nil, nil, err
		}
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
	seq := ma.nextSeq()
	for i, k := range ma.targets {
		if replace {
			// Covered positives were gathered out, so the tracked
			// assignment tightens to the dealt share.
			ma.assignedPos[k] = pos[i]
		} else {
			ma.assignedPos[k] = append(ma.assignedPos[k], pos[i]...)
			ma.assignedNeg[k] = append(ma.assignedNeg[k], neg[i]...)
		}
		rm := reassignMsg{Epoch: ma.epoch, Seq: seq, Gen: ma.gen, Members: members,
			Pos: pos[i], Neg: neg[i], Replace: replace, RollbackBelow: ma.rollbackTo}
		if err := ma.send(k, kindReassign, rm); err != nil {
			return err
		}
	}
	pending := ma.pendingLive()
	alive := 0
	for len(pending) > 0 {
		r, err := ma.nextReply(kindReassignAck, pending, func() replyHdr { return new(reassignAckMsg) })
		if err != nil {
			return err
		}
		// The ledger: a worker holds nothing the master did not hand it,
		// and right after a replace exactly its share, all of it alive.
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
	missing := func() []int {
		var out []int
		for _, k := range ma.targets {
			if !lp.Linked(k) {
				out = append(out, k)
			}
		}
		return out
	}
	wait := ma.cfg.RecvTimeout
	if wait <= 0 {
		wait = defaultResumeWait
	}
	deadline := time.Now().Add(wait)
	for {
		absent := missing()
		if len(absent) == 0 {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			for _, k := range absent {
				if err := ma.noteLost(k); err != nil {
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
		switch msg.Kind {
		case cluster.KindPeerUp:
			// A rejoining member (already live — noteJoin ignores it; the
			// Linked probe sees the fresh link) or a brand-new joiner.
			ma.noteJoin(msg.From)
		case cluster.KindPeerDown:
			if ma.dropPendingJoin(msg.From) || !ma.isLive(msg.From) {
				continue
			}
			if err := ma.noteLost(msg.From); err != nil {
				return err
			}
		default:
			ma.metrics.StaleDropped++ // pre-crash residue; superseded below
		}
	}
}

// defaultResumeWait bounds the rejoin wait when no RecvTimeout is set.
const defaultResumeWait = 60 * time.Second

// collectResumeInfo gathers every live member's kindResumeInfo answer.
// It is a dedicated loop rather than nextReply because worker epochs may
// legitimately EXCEED the checkpointed master clock — exactly the
// condition nextReply treats as a protocol violation. Everything else in
// the inbox is pre-crash residue (the simulated master inherits its
// predecessor's unread mailbox) and is dropped — including late
// adoptions, whose retractions the imminent rollback un-does.
func (ma *master) collectResumeInfo() (map[int]*resumeInfoMsg, error) {
	pending := ma.pendingLive()
	infos := make(map[int]*resumeInfoMsg, len(pending))
	for len(pending) > 0 {
		msg, err := receiveWithTimeout(ma.node, ma.cfg.RecvTimeout)
		if err != nil {
			return nil, fmt.Errorf("core: master: resume: waiting for worker state: %w", err)
		}
		switch msg.Kind {
		case cluster.KindPeerUp:
			ma.noteJoin(msg.From)
		case cluster.KindPeerDown:
			if ma.dropPendingJoin(msg.From) || !ma.isLive(msg.From) {
				continue
			}
			if err := ma.noteLost(msg.From); err != nil {
				return nil, err
			}
			delete(pending, msg.From)
		case kindFenced:
			// A worker owned by a newer master answers a stale master's
			// resume query with a fence, not with resume info: surface the
			// supersede immediately instead of letting the stale master
			// wait out its receive timeout on replies that never come.
			var fm fencedMsg
			if err := msg.Decode(&fm); err != nil {
				return nil, fmt.Errorf("core: master: garbled fence from node %d: %w", msg.From, err)
			}
			if fm.Gen > ma.gen {
				return nil, fmt.Errorf("core: master: resume: generation %d fenced off by worker %d at generation %d: %w",
					ma.gen, fm.Worker, fm.Gen, ErrSuperseded)
			}
		case kindResumeInfo:
			var im resumeInfoMsg
			if err := msg.Decode(&im); err != nil {
				return nil, fmt.Errorf("core: master: garbled resume info from node %d: %w", msg.From, err)
			}
			if im.Gen > ma.gen {
				// This loop bypasses nextReply, so the supersede check must
				// run here too: a worker already owned by a newer master
				// answers resume queries with that master's generation.
				return nil, fmt.Errorf("core: master: resume: generation %d superseded by generation %d (worker %d): %w",
					ma.gen, im.Gen, im.Worker, ErrSuperseded)
			}
			if !pending[im.Worker] {
				return nil, fmt.Errorf("core: master: duplicate or unexpected resume info for worker %d from node %d", im.Worker, msg.From)
			}
			delete(pending, im.Worker)
			infos[im.Worker] = &im
		default:
			ma.metrics.StaleDropped++
		}
	}
	return infos, nil
}

// resumeCluster is the crash-restart handshake, replacing the initial
// load on a resumed master: wait for the checkpointed members to rejoin,
// ask each where it stands (kindResumeQuery), re-ship the partition to
// remote workers the crash caught before their first load, fast-forward
// the epoch clock past everything any worker saw, and run the rollback
// barrier — every survivor restores its checkpoint-boundary snapshot,
// discarding the crashed epoch's partial work, and re-acks its alive
// count. From there the ordinary epoch loop re-issues the in-flight epoch
// and the run is on rails again; determinism makes the remainder identical
// to a run that never crashed.
func (ma *master) resumeCluster() error {
	boundary := ma.epoch // the checkpointed, completed epoch
	if err := ma.awaitRejoins(); err != nil {
		return err
	}
	if err := ma.bcastLive(kindResumeQuery, resumeQueryMsg{Epoch: ma.epoch, Seq: ma.nextSeq(), Gen: ma.gen}); err != nil {
		return err
	}
	infos, err := ma.collectResumeInfo()
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
		wm := welcomeMsg{Epoch: ma.epoch, Seq: ma.nextSeq(), Gen: ma.gen, Members: members, Load: load}
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
	if err := ma.bcastLive(kindStartPipeline, startMsg{Epoch: ma.epoch, Seq: ma.nextSeq(), Gen: ma.gen, Width: ma.cfg.Width}); err != nil {
		return err
	}
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
	ma.node.NotifyFailures(ma.cfg.Recover)
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
	for ma.remaining > 0 && ma.metrics.Epochs < ma.cfg.MaxEpochs {
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
	pending := ma.pendingLive()
	for len(pending) > 0 {
		r, err := ma.nextReply(kindFinal, pending, func() replyHdr { return new(finalMsg) })
		if err != nil {
			if wl := asWorkerLost(err); wl != nil {
				delete(pending, wl.id)
				continue
			}
			return err
		}
		ma.finals = append(ma.finals, *r.(*finalMsg))
	}
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
	if cfg.CheckpointDir != "" {
		if cfg.AddLearnedToBK {
			return nil, fmt.Errorf("core: CheckpointDir is incompatible with AddLearnedToBK: rollback cannot retract asserted rules")
		}
		if cfg.Fingerprint == 0 {
			cfg.Fingerprint = Fingerprint(kb, pos, neg)
		}
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
	st := nw.Stats()
	metrics.CommBytes = st.Bytes
	metrics.CommMessages = st.Messages
	metrics.Traffic = nw.Traffic()
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
