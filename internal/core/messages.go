package core

import (
	"time"

	"repro/internal/bottom"
	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
)

// Message kinds of the p²-mdie protocol. Master is node 0; workers are
// nodes 1..p. All payloads are encoded by the cluster substrate with the
// compact wire codec (wiremsg.go holds the encoders), so message sizes in
// the traffic accounting reflect real serialised content.
//
// Since the event-driven master (see DESIGN.md §6), every protocol message
// after the initial load opens with one header, tag. The master's
// dispatch loop and the workers' admission table silently drop
// stale-epoch traffic, which is what makes an epoch safely re-issuable
// after a worker failure: everything still in flight from the abandoned
// attempt carries the old epoch.
const (
	// kindLoad (master→workers) tells a worker to load its partition
	// (Fig. 5 step 3 / Fig. 6 load_examples). The example data itself is
	// not in the message: the paper assumes a shared filesystem, which the
	// simulation models by handing partitions to workers at construction.
	kindLoad = iota
	// kindStartPipeline (master→worker k) starts pipeline k (Fig. 5 step 7).
	kindStartPipeline
	// kindStage (worker→worker) hands a pipeline on to its next stage:
	// the travelling bottom clause plus the best W rules found so far
	// (Fig. 7 step 17).
	kindStage
	// kindRules (worker→master) delivers a completed pipeline's rules
	// (Fig. 7 step 13).
	kindRules
	// kindEvaluate (master→workers) requests local evaluation of the rules
	// bag (Fig. 5 steps 10 and 18 / Fig. 6 evaluate_rules).
	kindEvaluate
	// kindEvalResult (worker→master) returns local coverage counts.
	kindEvalResult
	// kindMarkCovered (master→workers) retracts the positives covered by
	// an accepted rule (Fig. 5 step 16 / Fig. 6 mark_covered). Applied
	// regardless of epoch: an accepted rule stays in the theory even when
	// the epoch that produced it is re-issued, so its retraction is always
	// valid — and skipping it would only resurrect already-covered work.
	kindMarkCovered
	// kindAdopt (master→workers) is the progress fallback when an epoch
	// produces no acceptable rule: each worker adopts its first uncovered
	// positive verbatim. Strictly epoch-checked: adopting for an abandoned
	// epoch would retire a positive whose adoption reply nobody reads.
	kindAdopt
	// kindAdopted (worker→master) returns the adopted example, if any.
	kindAdopted
	// kindStop (master→workers) ends the run.
	kindStop
	// kindGather (master→workers) requests the worker's uncovered
	// positives: the pooling half of a replace redeal — join admission,
	// Config.Balance, and the per-epoch repartitioning the paper declined
	// in §4.1 for its communication cost (implemented here as an
	// ablation). The dealt shares come back in kindReassign.
	kindGather
	// kindGathered (worker→master) returns the uncovered positives.
	kindGathered
	// 12: retired (was kindRepartition, an ack-less install of a fresh
	// positive partition; kindReassign with Replace carries it now). The
	// number is not reused, so no later kind renumbers.
	_
	// kindFinal (worker→master) closes a remote run: after kindStop a
	// network worker reports its work totals, clock and outgoing traffic so
	// the master can assemble the same Metrics the simulation reads off the
	// worker structs directly. Never sent on the simulated transport.
	kindFinal
	// kindReassign (master→worker) is the one install message of the
	// redeal barrier (master.redeal): the membership (the pipeline ring)
	// plus this worker's share of whatever was dealt. A merge deal —
	// recovery from a worker failure, and the rollback of a resumed master
	// — carries a share of the dead workers' examples, which the worker
	// adds to its partition; a replace deal (Replace set: join admission,
	// Config.Balance, per-epoch repartition) carries a share of the pooled
	// alive positives, which becomes the worker's positive partition
	// outright. Negatives never move except with a dead worker's share.
	// The master gathers every ack before it starts the next pipelines,
	// so no worker can observe new-epoch pipeline traffic before it runs
	// on the new membership and shares (see DESIGN.md §6).
	kindReassign
	// kindReassignAck (worker→master) confirms an install and reports the
	// worker's uncovered-positive count, from which the master rebases its
	// global remaining counter.
	kindReassignAck
	// kindSuspect (worker→master) reports a sibling the worker's
	// transport has declared dead. Failure detection is per-link, so it
	// can be one-sided: a worker-to-worker link can die — taking an
	// in-flight kindStage with it — while both ends' master links stay
	// healthy, and without this report the master would wait forever for
	// a pipeline nobody still owns. The master treats a live-member
	// suspicion from a live member as a membership event and recovers;
	// suspicions about already-excluded peers (the common case: the
	// master's own link noticed first) are dropped.
	kindSuspect
	// kindWelcome (master→joiner) admits a worker that joined the cluster
	// mid-run (the transport delivered a KindPeerUp event): it carries the
	// new pipeline ring and, on a remote run, the semantics-bearing
	// settings a kindLoad would have carried — with an empty partition,
	// because the joiner's share arrives in the kindReassign that follows
	// on the same link. See DESIGN.md §7.
	kindWelcome
	// 18, 19: retired (were kindRebalance / kindRebalanceAck, the replace
	// install and its ack; kindReassign / kindReassignAck carry both deals
	// now). Not reused.
	_
	_
	// kindResumeQuery (master→workers) opens a crash-restart resume: a
	// master rebuilt from a durable checkpoint asks every member where it
	// stands. Epoch-INDEPENDENT on the worker (like kindSuspect): worker
	// epochs may be ahead of the checkpointed master clock — finding out
	// by how much is the query's whole point. See DESIGN.md §8.
	kindResumeQuery
	// kindResumeInfo (worker→master) answers a resume query: the worker's
	// current epoch (the resumed master fast-forwards its own clock past
	// the maximum), whether it holds a loaded partition (a crash during
	// the initial load leaves remote workers empty, and the master must
	// re-ship), and its orphan-reconnect count since the last report.
	kindResumeInfo
	// kindFenced (worker→master) rejects a master whose generation is
	// stale: an asymmetric partition can leave a zombie master running
	// while a resumed master (generation + 1) has taken the cluster over.
	// The worker drops the stale frame (counted in Metrics.FencedFrames)
	// and answers with its own generation; a master that learns of a
	// higher generation self-fences — its run fails with ErrSuperseded
	// instead of double-driving epochs. See DESIGN.md §9.
	kindFenced
)

// tag is the header every post-load message opens with: Epoch, the
// master's re-issue counter; Seq, a per-sender monotonic sequence number
// for diagnostics; Gen, the master generation (see kindFenced), zero for
// a master that never crash-restarted. Each role stamps it in one place
// (worker.stamp, master.stamp), and appendTag/readTag encode it. tag has
// no AppendWire or DecodeWire: Go promotes an embedded type's methods, so
// a message that lacked its own codec would silently get a header-only one.
type tag struct {
	Epoch int
	Seq   int64
	Gen   int
}

// tags returns the frame's header. stopMsg and loadDataMsg carry only the
// generation, where their pinned layouts put it; the simulation's loadMsg
// has none, so it has no tags and bypasses the generation fence.
func (t tag) tags() tag         { return t }
func (m stopMsg) tags() tag     { return tag{Gen: m.Gen} }
func (m loadDataMsg) tags() tag { return tag{Gen: m.Gen} }

// loadMsg signals partition loading; Round distinguishes reloads. The
// simulation sends exactly this shape (the partition was handed to the
// worker at construction, modelling the paper's shared filesystem), so its
// serialised size — and with it the Table-4 byte accounting and the
// virtual-time transfer charges — is unchanged by the network transport's
// richer loadDataMsg below.
type loadMsg struct {
	Round int
}

// loadDataMsg is the network-transport load (same kindLoad tag): separate
// processes share no address space, so the partition travels in the
// message, together with every setting that affects search semantics —
// a worker whose knobs diverged from the master's would silently learn a
// different theory. Local-only settings (the cost model) stay with the
// worker. A loadMsg payload is just this struct's leading Round
// varint, so it does not decode as one (TestSimLoadMsgDecodesAsLoadData).
type loadDataMsg struct {
	Round   int
	HasData bool
	Pos     []logic.Term
	Neg     []logic.Term

	// Gen is the master generation, as in tag.
	Gen int

	Width  int
	Search search.Settings
	Bottom bottom.Options
	Budget solve.Budget
	// Recover mirrors the master's Config.Recover so the whole cluster
	// runs one failure regime: a worker that poisoned its transport on a
	// sibling's death while the master recovered around it would abort a
	// salvageable run.
	Recover bool
	// Balance mirrors the master's Config.Balance: workers attach their
	// measured throughput to kindGathered replies only when the master
	// will use it, so balance-off runs keep byte-identical wire traffic.
	Balance bool
	// Checkpoint mirrors whether the master writes durable checkpoints:
	// workers keep in-memory epoch-boundary snapshots (for crash-restart
	// rollback, reassignMsg.RollbackBelow) exactly when there are
	// checkpoints they could be rolled back to.
	Checkpoint bool
	// OrphanTimeout is non-zero exactly when the master checkpoints
	// (resumeWindow): it switches workers to the orphan regime on master
	// death (hold state, redial the master's stable address with backoff
	// for up to this long, resume on re-admission) instead of failing.
	OrphanTimeout time.Duration
}

// loadSettings builds the semantics-bearing remote load payload with an
// empty partition: every Config knob a worker with a diverged value would
// silently learn a different theory under. It is the single source of
// truth for both the initial kindLoad shipment (RunMaster fills in the
// partition) and a joiner's kindWelcome — add new semantics-bearing knobs
// HERE and in withLoadSettings, not at the call sites.
func (c Config) loadSettings() loadDataMsg {
	lm := loadDataMsg{
		HasData:    true,
		Width:      c.Width,
		Search:     c.Search,
		Bottom:     c.Bottom,
		Budget:     c.Budget,
		Recover:    c.Recover,
		Balance:    c.Balance,
		Checkpoint: c.CheckpointDir != "",
	}
	if lm.Checkpoint {
		// The orphan regime only pays when a restarted master can resume
		// from a checkpoint.
		lm.OrphanTimeout = resumeWindow
	}
	return lm
}

// withLoadSettings reads loadSettings back: c with the semantics-bearing
// knobs lm carries, for a remote worker's load and a resumed master's
// checkpoint alike. Checkpoint and OrphanTimeout stay with the callers:
// a worker applies them, a master derives them from its CheckpointDir.
func (c Config) withLoadSettings(lm *loadDataMsg) Config {
	c.Width = lm.Width
	c.Search = lm.Search
	c.Bottom = lm.Bottom
	c.Budget = lm.Budget
	c.Recover = lm.Recover
	c.Balance = lm.Balance
	return c
}

// startMsg starts a pipeline at its owning worker.
type startMsg struct {
	tag
	Width int
}

// wireRule is one rule travelling between pipeline stages: a subset of the
// travelling bottom clause's literals. Sending index sets rather than full
// clauses keeps stage messages small — the serialised size still grows
// linearly with the number of rules, which is what the paper's Table 4
// measures against the width limit.
type wireRule struct {
	Indices []int32
}

// stageMsg is the pipeline hand-off: the bottom clause built at stage 1
// travels with the search frontier (Fig. 7's send of ⊥e and Good).
type stageMsg struct {
	tag
	Origin int // worker that started this pipeline
	Step   int // stage number about to run (1-based)
	Bottom bottom.Bottom
	Seeds  []wireRule
}

// rulesMsg delivers a finished pipeline's good rules to the master,
// materialised so the master can rebroadcast them for global evaluation.
type rulesMsg struct {
	tag
	Origin int
	Rules  []logic.Clause
}

// evaluateMsg asks workers to score every bag rule on local alive examples.
type evaluateMsg struct {
	tag
	Rules []logic.Clause
}

// evalResultMsg returns per-rule local coverage.
type evalResultMsg struct {
	tag
	Worker int
	Pos    []int32
	Neg    []int32
}

// markCoveredMsg retracts local positives covered by Rule.
type markCoveredMsg struct {
	tag
	Rule logic.Clause
}

// adoptMsg asks each worker to retire one uncovered positive.
type adoptMsg struct {
	tag
}

// adoptedMsg reports the adopted example (Ok=false when the worker had no
// alive positives).
type adoptedMsg struct {
	tag
	Worker  int
	Ok      bool
	Example logic.Term
}

// stopMsg terminates workers; workers reply nothing (simulation) or a
// final report (network). It carries the generation so a zombie master
// cannot stop a cluster a newer generation is driving.
type stopMsg struct {
	Gen int
}

// gatherMsg requests the worker's alive positives.
type gatherMsg struct {
	tag
}

// gatheredMsg carries a worker's alive positives to the master. With
// Config.Balance the worker also reports its cumulative work totals —
// Inferences over BusyNs is its measured throughput (compute speed net of
// idle waiting), which sched.Balancer turns into proportional shares. The
// fields stay zero when balance is off, so the wire bytes of a
// repartition-only run are unchanged.
type gatheredMsg struct {
	tag
	Worker int
	Pos    []logic.Term
	// Costs, parallel to Pos, are per-example cost estimates (the
	// example's relational footprint in the background knowledge,
	// solve.KB.Footprint): sched.DealByCost equalises the *cost* each
	// worker holds, which a count-based deal cannot see.
	Costs []int64
	// Inferences is the worker's cumulative SLD work; BusyNs the virtual
	// nanoseconds it spent computing (clock advances from Compute charges
	// only, excluding receive-time idling).
	Inferences int64
	BusyNs     int64
}

// finalMsg is a network worker's end-of-run report (see kindFinal).
type finalMsg struct {
	tag
	Worker     int
	Inferences int64
	Generated  int64
	Clock      int64 // the worker's final virtual time
	Traffic    cluster.Traffic
	// Link-resilience counters: stale-generation frames this worker
	// fenced off, and its transport's flap/replay totals (zero on
	// transports without a link-session layer). All zero — and off the
	// wire — in an ordinary run.
	Fenced   int
	Flaps    int64
	Replayed int64
}

// reassignMsg installs a membership and a share (see kindReassign). In a
// merge deal Pos/Neg are this survivor's share of the dead workers'
// assignments; shares dealt to different survivors are disjoint, and
// disjoint from every survivor's own assignment, so the merge needs no
// deduplication.
type reassignMsg struct {
	tag
	Members []int // live worker ids, ascending — the new pipeline ring
	Pos     []logic.Term
	Neg     []logic.Term
	// Replace makes Pos the worker's whole positive partition instead of
	// an addition to it: the master pooled every alive positive first, so
	// everything the worker should now hold is in Pos. Neg is empty then —
	// negatives are never retracted, so their initial split stays
	// balanced, and a joiner simply holds none (negative coverage still
	// aggregates correctly because the original holders keep theirs).
	Replace bool
	// RollbackBelow, when non-zero, orders the worker to discard the
	// effects of every epoch ≥ RollbackBelow — restoring its in-memory
	// boundary snapshot for epoch RollbackBelow−1 — before merging the
	// shares. Sent by a resumed master whose checkpoint predates work the
	// surviving workers already did; each worker rolls back at most once
	// per resume (re-issued barriers merge on top of the restored state,
	// matching the master's assignment bookkeeping). Zero in every
	// failure-free and plain-recovery run.
	RollbackBelow int
}

// reassignAckMsg confirms an install (see kindReassignAck).
type reassignAckMsg struct {
	tag
	Worker int
	// Alive is the worker's uncovered-positive count after the install;
	// the master sums these to rebase `remaining` (a dead worker's share
	// may contain positives that were already covered — the master cannot
	// know which, so the survivors recount).
	Alive int
}

// welcomeMsg admits a mid-run joiner (see kindWelcome). Members is the new
// pipeline ring including the joiner; Load carries the settings of a
// remote run (HasData with an empty partition — the share follows in the
// kindReassign on the same ordered link) and is zero on the simulation,
// whose joiners are constructed with their configuration.
type welcomeMsg struct {
	tag
	Members []int
	Load    loadDataMsg
}

// resumeQueryMsg opens a crash-restart resume (see kindResumeQuery). The
// Epoch tag is the resumed master's checkpointed clock — informational
// only, since workers answer regardless of epoch.
type resumeQueryMsg struct {
	tag
}

// resumeInfoMsg answers a resume query (see kindResumeInfo).
type resumeInfoMsg struct {
	tag
	Worker int
	// Loaded reports whether the worker holds a partition; false means the
	// master crashed during the initial load and must re-ship kindLoad.
	Loaded bool
	// Reconnects is the worker's orphan→rejoin episode count since its
	// last report (the worker zeroes the counter after answering, so the
	// master can sum deltas across repeated restarts without double
	// counting).
	Reconnects int
}

// suspectMsg reports a transport-level sibling death (see kindSuspect).
// It is processed regardless of epoch: the observation is about present
// link state, not about any epoch's protocol phase.
type suspectMsg struct {
	tag
	Worker int // the reporter
	Peer   int // the peer it observed dying
}

// fencedMsg rejects a stale-generation master (see kindFenced): Gen is
// the worker's — higher — current generation.
type fencedMsg struct {
	tag
	Worker int
}

// replyHdr is the dispatch header shared by every worker→master payload:
// the master's event loop reads it to route, staleness-check, fence and
// deduplicate a reply.
type replyHdr interface {
	tags() tag
	// key returns the reply's pending-set key: the worker id for direct
	// replies, the pipeline origin for kindRules.
	key() int
}

func (m *rulesMsg) key() int       { return m.Origin }
func (m *evalResultMsg) key() int  { return m.Worker }
func (m *adoptedMsg) key() int     { return m.Worker }
func (m *gatheredMsg) key() int    { return m.Worker }
func (m *finalMsg) key() int       { return m.Worker }
func (m *reassignAckMsg) key() int { return m.Worker }
func (m *resumeInfoMsg) key() int  { return m.Worker }

// epochOnly decodes just the Epoch tag of a payload — used by the
// dispatch loop to distinguish a stale out-of-phase message (dropped) from
// a same-epoch protocol violation (fatal) without paying for a full
// decode. Every worker→master reply leads with its Epoch varint, so
// reading that and discarding the rest works against all of them.
type epochOnly struct {
	Epoch int
}
