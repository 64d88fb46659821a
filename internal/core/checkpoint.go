package core

import (
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/sched"
	"repro/internal/wire"
)

// checkpointRecord is the master's durable state, encoded (encode /
// decodeCheckpoint) into one ckpt snapshot at every epoch boundary (the
// top of run()'s epoch loop, where every barrier of the previous epoch
// has completed). It holds
// everything a restarted master needs to take over: the protocol clock,
// the theory so far, the per-worker example assignments recovery
// redistributes, the live membership with its address book, and the
// metrics counters that must stay cumulative across restarts. The bag is
// deliberately absent — at a boundary it is always empty.
type checkpointRecord struct {
	// Fingerprint pins the dataset: wire payloads (including this record's
	// terms) reference interned symbol indices, so a resume must have
	// re-loaded the exact task the checkpoint was written under.
	Fingerprint uint64

	// Protocol clock at the boundary. Generation is the master-generation
	// fence (DESIGN.md §9): the writing master's generation, bumped by
	// every ResumeMaster so each restart outranks — and fences off — its
	// predecessor's surviving frames.
	Epoch      int
	Seq        int64
	Generation int

	// Membership and assignments.
	Workers     int // initial p (Metrics.Workers)
	Targets     []int
	AssignedPos [][]logic.Term
	AssignedNeg [][]logic.Term

	// Covering-loop state.
	Remaining int
	Theory    []logic.Clause

	// Load is the semantics-bearing settings payload (empty partition),
	// from which the resumed master rebuilds its Config — and re-ships
	// kindLoad to workers the crash caught before their first load.
	Load loadDataMsg

	// Peers/Size are the transport address book (netcluster runs; nil/0 on
	// the simulation): the membership a restarted master must re-bind and
	// the workers' listen addresses for the ring's lazy dials.
	Peers []string
	Size  int

	// Metrics continuity.
	Epochs             int
	RulesLearned       int
	GroundFactsAdopted int
	Recoveries         int
	LostWorkers        int
	Rebalances         int
	JoinedWorkers      int
	JoinShares         []int
	StaleDropped       int64
	MasterRestarts     int
	OrphanReconnects   int
}

// addressBooker is implemented by transports whose members have stable
// out-of-band addresses a checkpoint must persist (netcluster.Node).
type addressBooker interface {
	AddressBook() ([]string, int)
}

// linkProber reports per-peer link liveness (netcluster.Node.Linked); the
// resume protocol uses it to tell which members still have to rejoin.
// Transports without explicit links (the simulated machine) lack it.
type linkProber interface {
	Linked(peer int) bool
}

// masterRejoiner re-establishes a worker's master link after a master
// death (netcluster.Node.RejoinMaster).
type masterRejoiner interface {
	RejoinMaster(timeout time.Duration) (int, error)
}

// linkStatser exposes a transport's link-resilience counters
// (netcluster.Node.LinkStats): transient link flaps absorbed and frames
// replayed over resumed links (DESIGN.md §9).
type linkStatser interface {
	LinkStats() (flaps, replayed int64)
}

// linkGracer exposes a transport's configured reconnect grace window
// (netcluster.Node.LinkGrace); config validation uses it to catch a
// grace window that would outlast the protocol's receive timeout.
type linkGracer interface {
	LinkGrace() time.Duration
}

// as finds capability T on t or on a transport it wraps: wrappers
// (faultline.Transport) expose the wrapped node through Inner.
func as[T any](t cluster.Transport) (T, bool) {
	for {
		if c, ok := t.(T); ok {
			return c, true
		}
		w, ok := t.(interface{ Inner() cluster.Transport })
		if !ok {
			var none T
			return none, false
		}
		t = w.Inner()
	}
}

// record assembles the master's current boundary state.
func (ma *master) record() *checkpointRecord {
	rec := &checkpointRecord{
		Fingerprint:        ma.cfg.Fingerprint,
		Epoch:              ma.epoch,
		Seq:                ma.seq,
		Generation:         ma.gen,
		Workers:            ma.metrics.Workers,
		Targets:            append([]int(nil), ma.targets...),
		AssignedPos:        ma.assignedPos,
		AssignedNeg:        ma.assignedNeg,
		Remaining:          ma.remaining,
		Theory:             ma.theory,
		Load:               ma.cfg.loadSettings(),
		Epochs:             ma.metrics.Epochs,
		RulesLearned:       ma.metrics.RulesLearned,
		GroundFactsAdopted: ma.metrics.GroundFactsAdopted,
		Recoveries:         ma.metrics.Recoveries,
		LostWorkers:        ma.metrics.LostWorkers,
		Rebalances:         ma.metrics.Rebalances,
		JoinedWorkers:      ma.metrics.JoinedWorkers,
		JoinShares:         ma.metrics.JoinShares,
		StaleDropped:       ma.metrics.StaleDropped,
		MasterRestarts:     ma.metrics.MasterRestarts,
		OrphanReconnects:   ma.metrics.OrphanReconnects,
	}
	if ab, ok := as[addressBooker](ma.node); ok {
		rec.Peers, rec.Size = ab.AddressBook()
	} else {
		rec.Size = ma.node.Size()
	}
	return rec
}

// maybeCheckpoint writes the boundary snapshot when checkpointing is
// configured. A failed save fails the run: a master that silently stopped
// being durable would break the crash-restart contract the caller asked
// for. Checkpointing never touches the wire, so checkpoint-on runs stay
// byte-identical to checkpoint-off runs.
func (ma *master) maybeCheckpoint() error {
	if ma.cfg.CheckpointDir == "" {
		return nil
	}
	if _, err := ckpt.Save(ma.cfg.CheckpointDir, ma.ckptSeq, ma.record().encode()); err != nil {
		return fmt.Errorf("core: master: checkpoint epoch %d: %w", ma.epoch, err)
	}
	ma.ckptSeq++
	return nil
}

// Checkpoint is a decoded master snapshot, loaded by LoadCheckpoint and
// consumed by ResumeMaster. The accessors expose what the front-end needs
// to rebuild the transport endpoint before resuming.
type Checkpoint struct {
	rec checkpointRecord
	seq uint64 // the snapshot's file sequence number
}

// LoadCheckpoint reads the latest valid snapshot under dir. The caller
// must have loaded the dataset (rebuilding the interned symbol table)
// BEFORE calling this — the record's terms reference symbol indices — and
// should verify Fingerprint against the freshly computed one.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	payload, seq, err := ckpt.LoadLatest(dir)
	if err != nil {
		return nil, err
	}
	rec, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{rec: rec, seq: seq}, nil
}

// checkpointFormat is the leading byte of a checkpoint payload, ahead of
// the wire-encoded record. Earlier formats are not read: format 1 was the
// gob record (a gob stream opens with a message length, never this byte)
// and format 2 also carried the since-deleted epoch cap, so either is
// refused by name.
const checkpointFormat = 3

// encode is the checkpoint payload: checkpointFormat, then every field in
// declaration order.
func (rec *checkpointRecord) encode() []byte {
	w := wire.Writer{B: []byte{checkpointFormat}}
	w.Fixed64(rec.Fingerprint)
	w.Int(rec.Epoch)
	w.Varint(rec.Seq)
	w.Int(rec.Generation)
	w.Int(rec.Workers)
	w.Ints(rec.Targets)
	appendShares(&w, rec.AssignedPos)
	appendShares(&w, rec.AssignedNeg)
	w.Int(rec.Remaining)
	w.Clauses(rec.Theory)
	rec.Load.AppendWire(&w)
	w.Strings(rec.Peers)
	w.Int(rec.Size)
	w.Int(rec.Epochs)
	w.Int(rec.RulesLearned)
	w.Int(rec.GroundFactsAdopted)
	w.Int(rec.Recoveries)
	w.Int(rec.LostWorkers)
	w.Int(rec.Rebalances)
	w.Int(rec.JoinedWorkers)
	w.Ints(rec.JoinShares)
	w.Varint(rec.StaleDropped)
	w.Int(rec.MasterRestarts)
	w.Int(rec.OrphanReconnects)
	return w.B
}

// decodeCheckpoint is encode's inverse. A payload of another format, or
// one that is truncated, corrupt or carries trailing bytes, is an error.
func decodeCheckpoint(payload []byte) (checkpointRecord, error) {
	var rec checkpointRecord
	if len(payload) == 0 || payload[0] != checkpointFormat {
		lead := "none"
		if len(payload) > 0 {
			lead = fmt.Sprintf("%#02x", payload[0])
		}
		return rec, fmt.Errorf("core: checkpoint is not format %d (leading byte %s): a checkpoint written by an earlier build cannot be resumed",
			checkpointFormat, lead)
	}
	r := wire.NewReader(payload[1:])
	rec.Fingerprint = r.Fixed64()
	rec.Epoch = r.Int()
	rec.Seq = r.Varint()
	rec.Generation = r.Int()
	rec.Workers = r.Int()
	rec.Targets = r.Ints()
	rec.AssignedPos = readShares(r)
	rec.AssignedNeg = readShares(r)
	rec.Remaining = r.Int()
	rec.Theory = r.Clauses()
	rec.Load.DecodeWire(r)
	rec.Peers = r.Strings()
	rec.Size = r.Int()
	rec.Epochs = r.Int()
	rec.RulesLearned = r.Int()
	rec.GroundFactsAdopted = r.Int()
	rec.Recoveries = r.Int()
	rec.LostWorkers = r.Int()
	rec.Rebalances = r.Int()
	rec.JoinedWorkers = r.Int()
	rec.JoinShares = r.Ints()
	rec.StaleDropped = r.Varint()
	rec.MasterRestarts = r.Int()
	rec.OrphanReconnects = r.Int()
	if err := r.Err(); err != nil {
		return checkpointRecord{}, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	if n := r.Remaining(); n != 0 {
		return checkpointRecord{}, fmt.Errorf("core: decode checkpoint: %w: %d trailing bytes", wire.ErrCorrupt, n)
	}
	return rec, nil
}

// appendShares appends per-worker example lists, indexed by node id.
func appendShares(w *wire.Writer, shares [][]logic.Term) {
	w.Uvarint(uint64(len(shares)))
	for _, s := range shares {
		w.Terms(s)
	}
}

func readShares(r *wire.Reader) [][]logic.Term {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([][]logic.Term, n)
	for i := range out {
		out[i] = r.Terms()
	}
	return out
}

// Fingerprint is the dataset fingerprint the checkpoint was written under.
func (c *Checkpoint) Fingerprint() uint64 { return c.rec.Fingerprint }

// Peers is the checkpointed transport address book (nil on simulation
// checkpoints).
func (c *Checkpoint) Peers() []string { return append([]string(nil), c.rec.Peers...) }

// Size is the checkpointed transport cluster size.
func (c *Checkpoint) Size() int { return c.rec.Size }

// Epoch is the checkpointed protocol epoch (the completed boundary).
func (c *Checkpoint) Epoch() int { return c.rec.Epoch }

// Epochs is the number of completed logical epochs at the boundary.
func (c *Checkpoint) Epochs() int { return c.rec.Epochs }

// config rebuilds the semantics-bearing Config a resumed master must run
// with over the caller's local knobs (timeouts, checkpoint dir, cost
// model): a resume that silently ran different search settings would learn
// a different theory.
func (rec *checkpointRecord) config(base Config) Config {
	return base.withLoadSettings(&rec.Load)
}

// resumedMaster rebuilds a master over t from a checkpoint: protocol
// clock, membership, assignments, theory and cumulative metrics all pick
// up where the snapshot left off. remote selects the multi-process regime
// (parts non-nil, final reports collected).
func resumedMaster(t cluster.Transport, ck *Checkpoint, cfg Config, metrics *Metrics, remote bool) *master {
	rec := &ck.rec
	metrics.Workers = rec.Workers
	metrics.Width = cfg.Width
	metrics.Epochs = rec.Epochs
	metrics.RulesLearned = rec.RulesLearned
	metrics.GroundFactsAdopted = rec.GroundFactsAdopted
	metrics.Recoveries = rec.Recoveries
	metrics.LostWorkers = rec.LostWorkers
	metrics.Rebalances = rec.Rebalances
	metrics.JoinedWorkers = rec.JoinedWorkers
	metrics.JoinShares = rec.JoinShares
	metrics.StaleDropped = rec.StaleDropped
	metrics.MasterRestarts = rec.MasterRestarts + 1
	metrics.OrphanReconnects = rec.OrphanReconnects
	ma := &master{
		node:        t,
		p:           rec.Workers,
		cfg:         cfg,
		metrics:     metrics,
		targets:     append([]int(nil), rec.Targets...),
		epoch:       rec.Epoch,
		seq:         rec.Seq,
		gen:         rec.Generation + 1,
		assignedPos: rec.AssignedPos,
		assignedNeg: rec.AssignedNeg,
		remaining:   rec.Remaining,
		theory:      rec.Theory,
		bal:         sched.NewBalancer(),
		resumed:     true,
		ckptSeq:     ck.seq + 1,
		// The crashed run already published every boundary up to the
		// checkpoint; a resumed master must not re-emit the same epoch
		// under a fresh sequence number.
		published: rec.Epochs,
	}
	if remote {
		// Non-nil but empty: marks the remote regime (welcome loads carry
		// settings, finals are collected) without the initial shipment —
		// workers already hold their partitions, or report Loaded=false in
		// the resume handshake and get theirs re-shipped.
		ma.parts = []loadDataMsg{}
	}
	return ma
}

// ResumeMaster restarts a crashed p²-mdie master from a checkpoint over a
// rebuilt transport endpoint (normally netcluster.Resume on the address
// book the checkpoint carries). It re-admits the rejoining workers, rolls
// every survivor back to the checkpoint boundary, re-issues the in-flight
// epoch and runs to completion: with the same dataset the learned theory
// is byte-identical to a run whose master never died. cfg supplies local
// knobs (RecvTimeout, CheckpointDir to keep checkpointing, Fingerprint of
// the re-loaded dataset); every semantics-bearing setting comes from the
// checkpoint itself.
func ResumeMaster(t cluster.Transport, ck *Checkpoint, cfg Config) (*Metrics, error) {
	if t.ID() != 0 {
		return nil, fmt.Errorf("core: ResumeMaster needs node id 0, got %d", t.ID())
	}
	if cfg.Fingerprint != 0 && ck.rec.Fingerprint != 0 && cfg.Fingerprint != ck.rec.Fingerprint {
		return nil, fmt.Errorf("core: checkpoint fingerprint %x does not match loaded dataset %x (resume against a different task)",
			ck.rec.Fingerprint, cfg.Fingerprint)
	}
	cfg = ck.rec.config(cfg).withDefaults()
	if len(ck.rec.Targets) == 0 {
		return nil, fmt.Errorf("core: checkpoint has no live workers to resume with")
	}

	return runRemote(resumedMaster(t, ck, cfg, &Metrics{}, true))
}
