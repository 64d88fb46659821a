package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bottom"
	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// worker is one pipeline node (Figures 6 and 7). It owns a partition of the
// examples, an SLD machine over the (shared) background knowledge and an
// event loop dispatching protocol messages. The transport behind node may
// be the simulated machine or a netcluster TCP node; the worker cannot
// tell the difference except through the remote flag, which switches the
// partition source (construction vs kindLoad) and the end-of-run report.
//
// The worker mirrors the master's epoch discipline (DESIGN.md §6): every
// master and ring frame passes one prologue, admit — decode, the
// generation fence, then its kind's row of the admission table, which
// drops stale-epoch requests whose replies nobody would read, holds a
// stage of an epoch the master link has not opened yet, and applies
// kindMarkCovered at any epoch (an accepted rule survives its epoch).
// run keeps only the actions; membership changes arrive in kindReassign,
// which merges a dead sibling's share or replaces the partition, and
// carries the surviving pipeline ring.
type worker struct {
	id   int // 1-based worker id; node id on the cluster
	node cluster.Transport
	cfg  Config
	ms   *mode.Set

	// epoch is the highest master epoch observed; seq numbers this
	// worker's outbound protocol messages.
	epoch int
	seq   int64

	// gen is the highest master generation observed (DESIGN.md §9): zero
	// until a crash-restarted master announces itself. Frames stamped
	// with a lower generation come from a superseded master and are
	// fenced off; fenced counts them for Metrics.FencedFrames.
	gen    int
	fenced int

	// ring is the live pipeline membership, ascending worker ids.
	// Initially 1..p; replaced by every kindReassign.
	ring []int
	// deadPeers marks siblings reported dead by the transport; stage
	// forwards to them are dropped (the master re-issues the epoch).
	deadPeers map[int]bool

	// remote marks a multi-process worker: the partition and the
	// semantics-bearing config arrive via kindLoad, and kindStop is
	// answered with a kindFinal report.
	remote bool
	kb     *solve.KB // retained for remote (re)loads

	m  *solve.Machine
	ex *search.Examples
	ev *search.Evaluator

	// retiredInf preserves the inference total of a machine discarded on a
	// reload, so the worker's work accounting stays monotonic.
	retiredInf int64

	// snapsOn enables epoch-boundary snapshots (set when the master runs
	// with CheckpointDir; remote workers learn it from the load message).
	// snaps holds them, keyed by completed epoch: the lazy snapshot taken
	// when the first message of a later epoch arrives captures exactly the
	// state the master's loop-top checkpoint named. Bounded (old boundaries
	// can no longer be rolled back to once a newer checkpoint lands).
	snapsOn bool
	snaps   map[int]boundarySnap
	// rolledBack is the highest reassignMsg.RollbackBelow this worker has
	// applied. A rollback is applied at most once: re-issued recovery
	// barriers after the restore merge their shares on top — mirroring the
	// master's append-only assignment bookkeeping — so restoring again
	// would orphan the shares merged in between.
	rolledBack int
	// orphanReconnects counts survived master deaths since the last
	// kindResumeInfo report (a delta, zeroed on reply, so repeated
	// restarts never double-count).
	orphanReconnects int
	// orphanTimeout is the load message's OrphanTimeout: non-zero puts
	// this worker in the orphan regime on master death.
	orphanTimeout time.Duration

	// busyNs accumulates the virtual nanoseconds this worker spent
	// computing (every clock advance charged through compute), excluding
	// receive-time idling. totalInf over busyNs is the worker's measured
	// throughput — its demonstrated compute speed — which it reports in
	// kindGathered replies when the master is balancing.
	busyNs int64

	generated int64 // rules evaluated by this worker's searches

	// held is the causal fence on ring frames (DESIGN.md §6): kindStage
	// messages of an epoch the master link has not opened here yet, in
	// arrival order. Links are FIFO one by one but nothing orders two of
	// them, so a neighbour's stage can overtake the master frames that
	// precede its epoch on the master link — the load, an accepted rule's
	// retraction, an adoption request. Such a stage waits until the worker
	// has handled the master frame that raises its epoch to the stage's,
	// which per-link FIFO puts after all of those. All entries share one
	// epoch (a newer one supersedes them), one per pipeline at most.
	held []stageMsg

	// covCache memoises intrinsic rule coverage over the local partition
	// (coverage over a fixed example set never changes; only the alive
	// mask does). It makes the repeated rules-bag evaluations of Fig. 5's
	// consumption loop nearly free after the first pass. Keyed by the
	// clause's structural hash (bag rules arrive canonicalised, so
	// structural equality is alpha-equivalence here) with an EqualClause
	// check on the bucket — no canonical-string key allocation per lookup.
	covCache map[uint64][]covCacheEntry
}

// covEntry is a memoised local evaluation of one rule.
type covEntry struct {
	pos search.Bitset // over all local positives, retracted or not
	neg int           // negatives never retract, so a count suffices
}

// covCacheEntry pairs a cached rule with its evaluation for hash-bucket
// verification.
type covCacheEntry struct {
	rule logic.Clause
	cov  covEntry
}

// boundarySnap is one epoch-boundary rollback point. The example set is
// held by reference — Pos and Neg are immutable once built, only the alive
// mask mutates — with the mask cloned; if a later redeal replaced the
// Examples object itself, the snapshot still pins the old one.
type boundarySnap struct {
	ex    *search.Examples
	alive search.Bitset
	ring  []int
}

// maxBoundarySnaps bounds the in-memory rollback window. The master only
// ever rolls back to its latest valid checkpoint — at most two epochs old
// (two snapshot files are kept) — so a handful of boundaries is ample.
const maxBoundarySnaps = 8

func fullRing(p int) []int {
	ring := make([]int, p)
	for i := range ring {
		ring[i] = i + 1
	}
	return ring
}

func newWorker(id, p int, node cluster.Transport, kb *solve.KB, ex *search.Examples, ms *mode.Set, cfg Config) *worker {
	w := &worker{
		id:      id,
		ring:    fullRing(p),
		node:    node,
		cfg:     cfg,
		ms:      ms,
		kb:      kb,
		snapsOn: cfg.CheckpointDir != "",
		snaps:   make(map[int]boundarySnap),
	}
	node.NotifyFailures(cfg.Recover)
	w.m = solve.NewMachine(w.kb, w.cfg.Budget)
	w.install(ex)
	return w
}

// newRemoteWorker builds a multi-process worker: id, worker count and —
// via kindLoad — the partition and search configuration all come from the
// master, so only the background knowledge and the language bias (the
// paper's shared-filesystem data) are needed up front.
func newRemoteWorker(node cluster.Transport, kb *solve.KB, ms *mode.Set, cfg Config) *worker {
	// Until kindLoad says which failure regime the master runs (loadRemote
	// installs it), a sibling's death must not poison this transport: the
	// sibling may have loaded, forwarded a stage here and crashed before
	// this worker got to its own kindLoad, and under recovery that worker
	// is one the run has to keep. Without recovery the event costs nothing
	// — the master's own link to the dead peer fails the run.
	node.NotifyFailures(true)
	return &worker{
		id:     node.ID(),
		ring:   fullRing(node.Size() - 1),
		node:   node,
		cfg:    cfg,
		ms:     ms,
		remote: true,
		kb:     kb,
		snaps:  make(map[int]boundarySnap),
	}
}

// loadRemote installs the partition and the master's semantics-bearing
// settings, building the machine and evaluator (a remote worker has none
// until its first kindLoad). Loading charges a nominal unit per example.
func (w *worker) loadRemote(lm *loadDataMsg) error {
	if !lm.HasData {
		return fmt.Errorf("core: worker %d: remote load carried no partition", w.id)
	}
	w.cfg = w.cfg.withLoadSettings(lm)
	w.snapsOn = lm.Checkpoint
	w.orphanTimeout = lm.OrphanTimeout
	w.cfg = w.cfg.withDefaults()
	// The failure regime is cluster-wide and master-decided: under
	// recovery a sibling's death must arrive as a membership event, not
	// poison this worker's transport — and the orphan regime needs the
	// master's own death delivered the same way.
	w.node.NotifyFailures(w.cfg.Recover || w.orphanTimeout > 0)
	if w.m != nil {
		w.retiredInf += w.m.TotalInferences() // the old machine goes too
	}
	w.m = solve.NewMachine(w.kb, w.cfg.Budget)
	w.install(search.NewExamples(lm.Pos, lm.Neg))
	w.compute(int64(w.ex.NumPos() + w.ex.NumNeg()))
	return nil
}

// install makes ex the worker's partition, with a fresh evaluator over it:
// the old evaluator hands its coverage memo's arenas back, and the coverage
// cache starts over, since its bitsets index the example set they were
// built over.
func (w *worker) install(ex *search.Examples) {
	if w.ev != nil {
		w.ev.Close()
	}
	w.ex = ex
	w.ev = search.NewEvaluator(w.m, w.ex)
	w.covCache = make(map[uint64][]covCacheEntry)
}

// sendFinal reports the worker's totals to the master (remote runs only).
func (w *worker) sendFinal() error {
	fm := finalMsg{
		tag:        w.stamp(),
		Worker:     w.id,
		Inferences: w.totalInf(),
		Generated:  w.generated,
		Clock:      int64(w.node.Clock()),
		Fenced:     w.fenced,
	}
	if ls, ok := as[linkStatser](w.node); ok {
		fm.Flaps, fm.Replayed = ls.LinkStats()
	}
	if tr, ok := w.node.(cluster.TrafficReporter); ok {
		// Snapshotted before the send, so the report excludes itself: the
		// p final messages are run bookkeeping, not protocol traffic, and
		// the simulation's Table-4 numbers have no counterpart for them.
		fm.Traffic = tr.Traffic()
	}
	return w.node.Send(0, kindFinal, fm)
}

// stamp is the header of the worker's next frame.
func (w *worker) stamp() tag {
	w.seq++
	return tag{Epoch: w.epoch, Seq: w.seq, Gen: w.gen}
}

// bumpEpoch advances the worker's epoch clock to the (already
// staleness-checked) wire epoch. When snapshots are on and the clock
// actually moves, the pre-advance state is recorded first, keyed by the
// epoch just completed — the lazy boundary snapshot a crash-restart
// rollback restores.
func (w *worker) bumpEpoch(to int) {
	if w.snapsOn && to > w.epoch && w.ex != nil {
		w.snapshot()
	}
	w.epoch = to
}

// snapshot records the current state under the current epoch and prunes
// the oldest boundaries past the cap.
func (w *worker) snapshot() {
	w.snaps[w.epoch] = boundarySnap{
		ex:    w.ex,
		alive: w.ex.PosAlive.Clone(),
		ring:  append([]int(nil), w.ring...),
	}
	for len(w.snaps) > maxBoundarySnaps {
		low := -1
		for k := range w.snaps {
			if low < 0 || k < low {
				low = k
			}
		}
		delete(w.snaps, low)
	}
}

// restore rolls the worker back to the boundary snapshot of the given
// completed epoch, discarding every later effect: retractions un-retract
// (the alive mask is restored) and partition replacements un-replace (the
// snapshotted Examples object comes back, with a fresh evaluator, since
// the coverage cache's bitsets index the example set they were built
// over). kindMarkCovered effects survive by re-application: the master
// re-retracts accepted rules when it re-issues the rolled-back epochs.
func (w *worker) restore(boundary int) error {
	s, ok := w.snaps[boundary]
	if !ok {
		return fmt.Errorf("core: worker %d: no boundary snapshot for epoch %d", w.id, boundary)
	}
	if s.ex != w.ex {
		w.install(s.ex)
	}
	w.ex.PosAlive = s.alive.Clone()
	w.ring = append([]int(nil), s.ring...)
	return nil
}

// fenceDrop applies the generation fence (DESIGN.md §9) to an inbound
// message stamped with gen. A frame below the worker's generation comes
// from a superseded master: it is dropped, and — when it came from the
// master link itself — answered with kindFenced so the stale master
// learns it must stand down. A frame above advances the worker's
// generation (a crash-restarted master announcing itself). The fence
// runs BEFORE the epoch-staleness check: a stale master's epoch clock
// may be arbitrarily ahead of or behind ours, so epoch comparison
// against its frames is meaningless.
func (w *worker) fenceDrop(gen, from int) (drop bool, err error) {
	if gen < w.gen {
		w.fenced++
		if from == 0 {
			err = w.sendMaster(kindFenced, fencedMsg{tag: w.stamp(), Worker: w.id})
		}
		return true, err
	}
	if gen > w.gen {
		w.gen = gen
	}
	return false, nil
}

// epochRule is what a frame's epoch means to the worker (DESIGN.md §6).
type epochRule int

const (
	// atEpoch: a frame of an abandoned epoch attempt is dropped (nobody
	// reads its reply); any other moves the epoch clock to the frame's.
	atEpoch epochRule = iota
	// anyEpoch: the frame applies whatever its epoch.
	anyEpoch
	// ringEpoch: a stage of an abandoned epoch is dropped, one of an epoch
	// the master link has not opened here yet is held, one of the worker's
	// own epoch runs.
	ringEpoch
)

// admission is the worker's admission table: for every master and ring
// kind, the payload it decodes into, its epoch rule, and whether it may
// arrive before the partition is loaded.
var admission = map[int]struct {
	rule  epochRule
	early bool
	frame func(remote bool) any
}{
	// The simulation's loadMsg carries no generation, so it bypasses the
	// fence; the remote loadDataMsg carries Gen mid-struct.
	kindLoad: {anyEpoch, true, func(remote bool) any {
		if remote {
			return new(loadDataMsg)
		}
		return new(loadMsg)
	}},
	kindStartPipeline: {atEpoch, false, fresh[startMsg]},
	kindStage:         {ringEpoch, false, fresh[stageMsg]},
	kindEvaluate:      {atEpoch, false, fresh[evaluateMsg]},
	// An accepted rule stays in the theory even when its epoch is
	// re-issued, so its retraction applies at any epoch — though not from
	// a superseded generation, whose acceptances the live one never made.
	kindMarkCovered: {anyEpoch, false, fresh[markCoveredMsg]},
	// A stale adoption must not run: it would retire a positive whose reply
	// nobody reads, leaving it neither covered nor adopted.
	kindAdopt:    {atEpoch, false, fresh[adoptMsg]},
	kindStop:     {anyEpoch, true, fresh[stopMsg]}, // Gen only
	kindGather:   {atEpoch, false, fresh[gatherMsg]},
	kindReassign: {atEpoch, false, fresh[reassignMsg]},
	kindWelcome:  {atEpoch, true, fresh[welcomeMsg]},
	// A crash-restarted master's checkpointed clock may be behind this
	// worker's; finding out by how much is the query's point.
	kindResumeQuery: {anyEpoch, true, fresh[resumeQueryMsg]},
}

// fresh is an admission row's payload constructor for a kind with one
// payload type.
func fresh[T any](bool) any { return new(T) }

// admit is the prologue every master and ring frame passes: decode the
// payload its kind's row names, apply the generation fence, then the
// row's epoch rule. It returns the payload to act on, with the worker's
// epoch before the frame moved it, or nil when the frame was fenced,
// dropped or held.
func (w *worker) admit(msg cluster.Message) (f any, prev int, err error) {
	row, ok := admission[msg.Kind]
	if !ok {
		return nil, 0, fmt.Errorf("core: worker %d got unknown message kind %d", w.id, msg.Kind)
	}
	f = row.frame(w.remote)
	if err := msg.Decode(f); err != nil {
		return nil, 0, err
	}
	var t tag
	if h, ok := f.(interface{ tags() tag }); ok {
		t = h.tags()
		if drop, err := w.fenceDrop(t.Gen, msg.From); drop || err != nil {
			return nil, 0, err
		}
	}
	prev = w.epoch
	switch {
	case row.rule == anyEpoch:
	case t.Epoch < w.epoch:
		return nil, 0, nil // residue of an abandoned epoch attempt
	case row.rule == ringEpoch && t.Epoch > w.epoch:
		return nil, 0, w.hold(*f.(*stageMsg))
	case row.rule == atEpoch:
		w.bumpEpoch(t.Epoch)
	}
	if w.ex == nil && !row.early {
		return nil, 0, fmt.Errorf("core: worker %d got kind %d of epoch %d before its partition was loaded", w.id, msg.Kind, t.Epoch)
	}
	return f, prev, nil
}

// sendMaster ships a protocol message to the master, swallowing the
// dead-master send error under the orphan regime: the message belongs to
// an epoch the restarted master will roll back anyway, and the KindPeerDown
// event (possibly already queued) moves the worker into its reconnect
// loop.
func (w *worker) sendMaster(kind int, v any) error {
	err := w.node.Send(0, kind, v)
	if err != nil && w.orphanTimeout > 0 && errors.Is(err, cluster.ErrPeerDown) {
		return nil
	}
	return err
}

// totalInf is the worker's total SLD work: its own machine plus the totals
// of machines retired on a reload.
func (w *worker) totalInf() int64 {
	if w.m == nil { // remote worker stopped before its first load
		return w.retiredInf
	}
	return w.m.TotalInferences() + w.retiredInf
}

// cachedCoverage returns the memoised evaluation of rule, or nil.
func (w *worker) cachedCoverage(rule *logic.Clause) *covEntry {
	bucket := w.covCache[rule.Hash64()]
	for i := range bucket {
		if logic.EqualClause(&bucket[i].rule, rule) {
			return &bucket[i].cov
		}
	}
	return nil
}

// storeCoverage memoises one rule's evaluation.
func (w *worker) storeCoverage(rule *logic.Clause, e covEntry) {
	h := rule.Hash64()
	w.covCache[h] = append(w.covCache[h], covCacheEntry{rule: *rule, cov: e})
}

// ruleCoverage returns the memoised intrinsic coverage of rule on this
// worker's partition, computing and charging it on first sight.
func (w *worker) ruleCoverage(rule *logic.Clause) covEntry {
	if e := w.cachedCoverage(rule); e != nil {
		return *e
	}
	before := w.totalInf()
	pos, neg := w.ev.CoverageFull(rule)
	w.chargeWork(before)
	e := covEntry{pos: pos, neg: neg.Count()}
	w.storeCoverage(rule, e)
	return e
}

// primeCoverage batch-evaluates every bag rule missing from the coverage
// cache in a single CoverageFullBatch call — one pool synchronisation for
// the whole bag instead of one per rule — charging the SLD work once. The
// total inference count equals rule-at-a-time evaluation exactly; the
// virtual-clock charge coincides too under any integral NsPerInference
// (all bundled cost models), while a fractional model could differ by up
// to one truncated nanosecond per rule versus per-rule charging.
func (w *worker) primeCoverage(rules []logic.Clause) {
	var missing []*logic.Clause
	var pending map[uint64][]*logic.Clause // lazily built: re-sent bags usually hit the cache in full
	for i := range rules {
		r := &rules[i]
		if w.cachedCoverage(r) != nil {
			continue
		}
		if pending == nil {
			pending = make(map[uint64][]*logic.Clause)
		}
		h := r.Hash64()
		dup := false
		for _, m := range pending[h] {
			if logic.EqualClause(m, r) {
				dup = true
				break
			}
		}
		if !dup {
			pending[h] = append(pending[h], r)
			missing = append(missing, r)
		}
	}
	if len(missing) == 0 {
		return
	}
	before := w.totalInf()
	results := w.ev.CoverageFullBatch(missing)
	w.chargeWork(before)
	for i, r := range missing {
		w.storeCoverage(r, covEntry{pos: results[i].Pos, neg: results[i].Neg.Count()})
	}
}

// nextWorker computes the successor on the live ring (Fig. 7
// next_worker()): the next higher surviving id, wrapping to the lowest.
func (w *worker) nextWorker() int {
	for _, k := range w.ring {
		if k > w.id {
			return k
		}
	}
	return w.ring[0]
}

// compute advances the node's virtual clock by units of work, accumulating
// the resulting clock advance into busyNs. Measuring the advance (rather
// than recomputing units × cost) keeps the busy-time account correct on
// heterogeneous clusters where this node's per-inference cost differs from
// the model's baseline.
func (w *worker) compute(units int64) {
	if units <= 0 {
		return
	}
	before := w.node.Clock()
	w.node.Compute(units)
	w.busyNs += int64(w.node.Clock() - before)
}

// chargeWork advances the node's virtual clock by the SLD work done since
// the last charge (before is a prior totalInf reading).
func (w *worker) chargeWork(before int64) {
	w.compute(w.totalInf() - before)
}

// run is the worker event loop; it exits on kindStop or network shutdown.
func (w *worker) run() error {
	// Hand the coverage memo's arenas back when the worker retires.
	defer func() {
		if w.ev != nil {
			w.ev.Close()
		}
	}()
	for {
		// The frame just handled may have opened the epoch held stages
		// were fenced behind.
		if err := w.releaseHeld(); err != nil {
			return err
		}
		msg, err := receiveWithTimeout(w.node, w.cfg.RecvTimeout)
		if errors.Is(err, cluster.ErrClosed) {
			return nil
		}
		if err != nil {
			return w.receiveError(err)
		}
		if msg.Kind == cluster.KindPeerUp {
			// A machine joined the cluster. The master drives admission;
			// this worker learns the new ring from the kindReassign that
			// follows, so the transport event itself needs no action.
			continue
		}
		if msg.Kind == cluster.KindPeerDown {
			if msg.From == 0 {
				if w.orphanTimeout > 0 {
					if rj, ok := as[masterRejoiner](w.node); ok {
						// Orphan regime: hold all state and redial the
						// master's stable address with backoff until a
						// restarted master re-admits this worker (its
						// kindResumeQuery then arrives on the new link).
						if _, err := rj.RejoinMaster(w.orphanTimeout); err != nil {
							return fmt.Errorf("core: worker %d orphaned at epoch %d: master did not return: %w", w.id, w.epoch, err)
						}
						w.orphanReconnects++
						continue
					}
				}
				return fmt.Errorf("core: worker %d at epoch %d: master failed: %w", w.id, w.epoch, cluster.ErrPeerDown)
			}
			// A dead sibling: remember it so pipeline forwards stop
			// targeting it, and report the observation — link failures
			// are per-link, so this worker may be the only one (master
			// included) that saw it, possibly with a stage in flight.
			// The master drives the actual recovery.
			if w.deadPeers == nil {
				w.deadPeers = make(map[int]bool)
			}
			w.deadPeers[msg.From] = true
			err := w.node.Send(0, kindSuspect, suspectMsg{tag: w.stamp(), Worker: w.id, Peer: msg.From})
			if err != nil && !errors.Is(err, cluster.ErrPeerDown) {
				return err
			}
			continue
		}
		f, prev, err := w.admit(msg)
		if err != nil {
			return err
		}
		switch m := f.(type) {
		case *loadMsg:
			// Data is on the shared filesystem (partition handed at
			// construction); loading charges a nominal unit per example.
			w.compute(int64(w.ex.NumPos() + w.ex.NumNeg()))
		case *loadDataMsg:
			err = w.loadRemote(m)
		case *startMsg:
			err = w.startPipeline()
		case *stageMsg:
			err = w.runStage(m)
		case *evaluateMsg:
			err = w.evaluateBag(m)
		case *markCoveredMsg:
			w.markCovered(m)
		case *adoptMsg:
			err = w.adoptOne()
		case *gatherMsg:
			err = w.gatherAlive()
		case *reassignMsg:
			err = w.reassign(m, prev)
		case *welcomeMsg:
			// This worker joined mid-run: install the ring (and, remote,
			// the settings a kindLoad would have carried — the partition
			// share follows in the kindReassign on this same link).
			w.ring = m.Members
			if w.remote {
				err = w.loadRemote(&m.Load)
			}
		case *resumeQueryMsg:
			// Reply with where this worker stands; the rollback rides on
			// the kindReassign that follows. The reconnect count is a
			// delta: the master accumulates what it is told.
			err = w.sendMaster(kindResumeInfo, resumeInfoMsg{tag: w.stamp(), Worker: w.id, Loaded: w.ex != nil, Reconnects: w.orphanReconnects})
			w.orphanReconnects = 0
		case *stopMsg:
			if w.remote {
				return w.sendFinal()
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// receiveError says where the worker stood when its receive failed: its
// epoch, generation, ring, whether its partition is loaded, and any stages
// it holds for a master frame that never came.
func (w *worker) receiveError(err error) error {
	loaded := "loaded"
	if w.ex == nil {
		loaded = "not loaded"
	}
	at := fmt.Sprintf("core: worker %d at epoch %d, generation %d, ring %v, partition %s", w.id, w.epoch, w.gen, w.ring, loaded)
	if len(w.held) > 0 {
		return fmt.Errorf("%s: receive, holding %d stage(s) of epoch %d for the master frame that opens it: %w", at, len(w.held), w.held[0].Epoch, err)
	}
	return fmt.Errorf("%s: receive: %w", at, err)
}

// hold fences a stage of an epoch this worker has not been moved to yet.
// A stage newer than the ones already held supersedes them (its epoch's
// start is on the master link, so theirs was abandoned); an older one is
// itself superseded. One epoch sends a worker at most one stage per other
// pipeline, so more entries than nodes is a protocol violation, not load.
func (w *worker) hold(st stageMsg) error {
	if len(w.held) > 0 {
		switch at := w.held[0].Epoch; {
		case st.Epoch < at:
			return nil
		case st.Epoch > at:
			w.held = w.held[:0]
		}
	}
	if len(w.held) >= w.node.Size() {
		return fmt.Errorf("core: worker %d at epoch %d: %d stages of epoch %d held, more than the ring can send", w.id, w.epoch, len(w.held), st.Epoch)
	}
	w.held = append(w.held, st)
	return nil
}

// releaseHeld runs, in arrival order, the held stages whose epoch the
// worker has reached, and drops them if it has moved past. Only master
// frames move the epoch, so this is a no-op except right after one did.
func (w *worker) releaseHeld() error {
	if len(w.held) == 0 || w.held[0].Epoch > w.epoch {
		return nil
	}
	held := w.held
	w.held = nil
	if held[0].Epoch < w.epoch {
		return nil
	}
	for i := range held {
		if err := w.runStage(&held[i]); err != nil {
			return err
		}
	}
	return nil
}

// startPipeline runs stage 1 of this worker's pipeline (Fig. 6
// start_pipeline): select a local uncovered example, saturate it, search,
// and hand the frontier to the next stage.
func (w *worker) startPipeline() error {
	seedIdx := w.ex.FirstAlivePos()
	if seedIdx < 0 {
		// Nothing left locally: deliver an empty pipeline result.
		return w.sendMaster(kindRules, rulesMsg{tag: w.stamp(), Origin: w.id})
	}
	before := w.totalInf()
	bot, err := bottom.Construct(w.m, w.ms, w.ex.Pos[seedIdx], w.cfg.Bottom)
	if err != nil {
		return fmt.Errorf("core: worker %d saturation: %w", w.id, err)
	}
	res := search.LearnRule(w.ev, bot, nil, w.cfg.Search)
	w.generated += int64(res.Generated)
	w.chargeWork(before)
	// This stageMsg never hits the wire (forward builds the outgoing
	// message, stamping it there), it just threads origin/step/bottom.
	return w.forward(&stageMsg{Origin: w.id, Step: 1, Bottom: *bot}, res)
}

// runStage continues a pipeline that arrived from the previous worker
// (Fig. 7 learn_rule' at Step > 1). When nothing survived the previous
// stages the empty frontier (a nil result) is passed on, so the pipeline
// still completes at the master.
func (w *worker) runStage(st *stageMsg) error {
	var res *search.Result
	if len(st.Seeds) > 0 {
		seeds := make([][]int32, len(st.Seeds))
		for i, s := range st.Seeds {
			seeds[i] = s.Indices
		}
		before := w.totalInf()
		res = search.LearnRule(w.ev, &st.Bottom, seeds, w.cfg.Search)
		w.generated += int64(res.Generated)
		w.chargeWork(before)
	}
	return w.forward(st, res)
}

// forwardStage ships a stage hand-off to the ring successor. It reports
// sent=false (with no error) when the successor is unreachable — known
// dead, or the send failed with ErrPeerDown — so the caller can terminate
// the pipeline at the master instead: silently dropping the stage would
// hang the master forever if its own link to that peer happened to stay
// healthy (failure detection is per-link on TCP, so it can be one-sided).
func (w *worker) forwardStage(next stageMsg) (sent bool, err error) {
	to := w.nextWorker()
	if w.deadPeers[to] {
		return false, nil
	}
	err = w.node.Send(to, kindStage, next)
	if err != nil && errors.Is(err, cluster.ErrPeerDown) {
		return false, nil
	}
	return err == nil, err
}

// deliverRules completes a pipeline at the master (res nil = empty
// frontier).
func (w *worker) deliverRules(st *stageMsg, res *search.Result) error {
	var rules []logic.Clause
	if res != nil {
		rules = make([]logic.Clause, 0, len(res.Good))
		for _, g := range res.Good {
			rules = append(rules, g.Materialize(&st.Bottom).Canonical())
		}
	}
	return w.sendMaster(kindRules, rulesMsg{tag: w.stamp(), Origin: st.Origin, Rules: rules})
}

// forward routes a stage's results (res nil = empty frontier): to the
// next worker while stages remain, to the master once the pipeline has
// visited every live partition — or early, when the ring successor is
// unreachable. The early, less-refined delivery keeps the epoch live at
// the master, which either counts the pipeline (an asymmetric link failure
// it cannot see) or discards it as stale after recovering (a death it can
// see). Stages run only at the worker's own epoch, so the stamp carries
// the pipeline's.
func (w *worker) forward(st *stageMsg, res *search.Result) error {
	if st.Step < len(w.ring) {
		next := stageMsg{tag: w.stamp(), Origin: st.Origin, Step: st.Step + 1, Bottom: st.Bottom}
		if res != nil {
			next.Seeds = make([]wireRule, 0, len(res.Good))
			for _, g := range res.Good {
				next.Seeds = append(next.Seeds, wireRule{Indices: g.Indices})
			}
		}
		sent, err := w.forwardStage(next)
		if sent || err != nil {
			return err
		}
	}
	return w.deliverRules(st, res)
}

// evaluateBag scores every bag rule on the local alive examples and reports
// the counts (Fig. 6 evaluate_rules). Coverage is memoised per rule, so
// the re-evaluations of the consumption loop only recount bitset
// intersections with the current alive mask.
func (w *worker) evaluateBag(em *evaluateMsg) error {
	w.primeCoverage(em.Rules) // one pool synchronisation for the whole bag
	out := evalResultMsg{
		tag:    w.stamp(),
		Worker: w.id,
		Pos:    make([]int32, len(em.Rules)),
		Neg:    make([]int32, len(em.Rules)),
	}
	for i := range em.Rules {
		e := w.ruleCoverage(&em.Rules[i])
		out.Pos[i] = int32(search.AndCount(e.pos, w.ex.PosAlive))
		out.Neg[i] = int32(e.neg)
	}
	return w.sendMaster(kindEvalResult, out)
}

// markCovered retracts the local positives covered by the accepted rule
// (Fig. 6 mark_covered). The rule is not asserted into the background
// (Fig. 6's B = B ∪ {R}): no bundled modeb names the target predicate, so
// no later rule body could call it, and the sequential Fig. 1 never
// asserts either (DESIGN.md §4).
func (w *worker) markCovered(mm *markCoveredMsg) {
	e := w.ruleCoverage(&mm.Rule)
	w.ex.RetractPos(e.pos)
}

// gatherAlive ships the worker's uncovered positives to the master for a
// replace redeal. Under Balance it also reports the cumulative work totals
// the master's balancer measures throughput from; off, the fields stay
// zero and the message bytes are unchanged.
func (w *worker) gatherAlive() error {
	out := gatheredMsg{tag: w.stamp(), Worker: w.id}
	w.ex.PosAlive.ForEach(func(i int) bool {
		out.Pos = append(out.Pos, w.ex.Pos[i])
		return true
	})
	if w.cfg.Balance {
		out.Costs = make([]int64, len(out.Pos))
		for i, e := range out.Pos {
			out.Costs[i] = w.exampleCost(e)
		}
		out.Inferences = w.totalInf()
		out.BusyNs = w.busyNs
	}
	return w.sendMaster(kindGathered, out)
}

// exampleCost estimates an example's evaluation cost as the relational
// footprint of its individual (the first argument's neighbourhood size in
// the background knowledge) — the quantity SLD work on the example scales
// with. Always ≥ 1 so zero-footprint examples still count.
func (w *worker) exampleCost(e logic.Term) int64 {
	c := e
	if e.Kind == logic.Compound && len(e.Args) > 0 {
		c = e.Args[0]
	}
	return int64(1 + w.kb.Footprint(c))
}

// reassign installs one redeal: adopt the ring the master sent (it may
// have shrunk after a failure or grown by mid-run joiners), take the share
// — merged into the alive partition, or, for a replace deal, as the whole
// positive partition: the master pooled every alive positive first, so
// everything this worker should now hold is in rm.Pos — and acknowledge
// with the local uncovered count so the master can rebase its remaining
// counter. Merged shares are disjoint from everything already here.
// Negatives stay put unless a dead sibling's arrive. After a master
// crash-restart the install additionally carries a rollback order, applied
// at most once (see worker.rolledBack) and only when this worker's
// pre-message epoch (prev) had actually advanced past the checkpoint
// boundary — a worker already sitting at the boundary has nothing to
// discard.
func (w *worker) reassign(rm *reassignMsg, prev int) error {
	if rm.RollbackBelow > 0 && rm.RollbackBelow > w.rolledBack {
		if prev >= rm.RollbackBelow {
			if err := w.restore(rm.RollbackBelow - 1); err != nil {
				return err
			}
		}
		w.rolledBack = rm.RollbackBelow
	}
	w.ring = rm.Members
	for _, k := range rm.Members {
		delete(w.deadPeers, k)
	}
	pos := rm.Pos
	if !rm.Replace {
		pos = make([]logic.Term, 0, w.ex.PosAlive.Count()+len(rm.Pos))
		w.ex.PosAlive.ForEach(func(i int) bool {
			pos = append(pos, w.ex.Pos[i])
			return true
		})
		pos = append(pos, rm.Pos...)
	}
	neg := w.ex.Neg
	if len(rm.Neg) > 0 {
		neg = append(append(make([]logic.Term, 0, len(neg)+len(rm.Neg)), neg...), rm.Neg...)
	}
	w.install(search.NewExamples(pos, neg))
	w.compute(int64(len(pos)))
	return w.sendMaster(kindReassignAck, reassignAckMsg{tag: w.stamp(), Worker: w.id, Alive: w.ex.PosAlive.Count()})
}

// adoptOne retires the first uncovered local positive as a ground fact
// (progress fallback; see DESIGN.md §5).
func (w *worker) adoptOne() error {
	idx := w.ex.FirstAlivePos()
	if idx < 0 {
		return w.sendMaster(kindAdopted, adoptedMsg{tag: w.stamp(), Worker: w.id})
	}
	single := search.NewBitset(len(w.ex.Pos))
	single.Set(idx)
	w.ex.RetractPos(single)
	w.compute(1)
	return w.sendMaster(kindAdopted, adoptedMsg{tag: w.stamp(), Worker: w.id, Ok: true, Example: w.ex.Pos[idx]})
}
