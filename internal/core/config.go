// Package core implements p²-mdie, the paper's pipelined data-parallel
// covering algorithm (Figures 5–7): examples are partitioned evenly over p
// workers; every epoch p rule searches start simultaneously, each pipelined
// through all p workers so that a rule is refined incrementally against
// every data partition; the master then evaluates the collected rules bag
// globally and consumes it MDIE-style.
package core

import (
	"time"

	"repro/internal/bottom"
	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
)

// Config parameterises a parallel run.
type Config struct {
	// Workers is p, the number of pipeline workers (the master is an
	// additional coordination-only node, as in the paper's master/worker
	// model). Must be ≥ 1.
	Workers int
	// Width is W, the pipeline width: the maximum number of good rules
	// passed between stages and to the master. ≤0 means unlimited
	// ("nolimit" in the paper's tables).
	Width int
	// Seed drives the random even partitioning of the examples (Fig. 5
	// step 2).
	Seed int64
	// Search configures each stage's rule search.
	Search search.Settings
	// Bottom configures saturation.
	Bottom bottom.Options
	// Budget bounds individual proofs.
	Budget solve.Budget
	// Cost is the simulated cluster cost model.
	Cost cluster.CostModel
	// RepartitionEachEpoch re-balances the uncovered positives across
	// workers before every epoch after the first — the design alternative
	// the paper declined for its communication cost (§4.1). Implemented
	// for the repartitioning ablation: expect balanced partitions but a
	// large jump in exchanged bytes. It is the redeal barrier with an even
	// deal, so each repartition also costs the install acks and counts in
	// Metrics.Rebalances.
	RepartitionEachEpoch bool
	// Balance enables throughput-aware load rebalancing: between epochs
	// the master gathers every worker's uncovered positives together with
	// its measured throughput (inferences per virtual second of busy time,
	// read off the cost-model clock) and deals the pool back out
	// proportionally — fast workers get more, stragglers less, and fresh
	// joiners an average share (sched.Balancer). Off (the default), shares
	// are only dealt at partition time (plus RepartitionEachEpoch's even
	// redeal, which Balance supersedes when both are set), and runs are
	// byte-identical to a build without the scheduling layer. See
	// DESIGN.md §7.
	Balance bool
	// JoinEpochs schedules mid-run worker joins on the simulated cluster:
	// each entry e spawns one fresh worker once e epochs have completed
	// (0 = before the first). The joiner is welcomed into the ring and
	// receives a share at the redeal barrier that follows; with Balance off
	// the pool is redealt evenly on admission. Simulation-only — on a TCP run
	// joiners attach themselves via `p2mdie -join` instead.
	JoinEpochs []int
	// RecvTimeout bounds every blocking protocol receive (master and
	// workers). 0 means no deadline: the transport's own failure paths —
	// shutdown in the simulation, link errors and heartbeat timeouts on
	// TCP — already unblock a receiver whose peer died; a timeout adds a
	// guard against protocol-level stalls where all peers stay healthy
	// but none ever sends.
	RecvTimeout time.Duration
	// Recover enables worker-failure recovery: the transport delivers
	// peer deaths as membership events, and the master — instead of
	// aborting the run — excludes the dead worker, redistributes its
	// assigned examples over the survivors (a merge redeal), re-issues the
	// in-flight epoch and continues on p−1 pipelines. Off, a worker
	// failure fails the run (the original fail-stop contract). Failure-
	// free runs are byte-identical with either setting. See DESIGN.md §6.
	Recover bool
	// CheckpointDir, when non-empty, makes the master durable: at every
	// epoch boundary it writes a versioned, CRC-guarded snapshot of its
	// protocol state (theory, per-worker assignments, remaining counter,
	// membership and address book) under this directory via atomic
	// temp-file-and-rename, keeping the last two snapshots. A crashed
	// master restarts from the latest valid snapshot (`p2mdie -resume`)
	// and the learned theory is byte-identical to a failure-free run.
	// Workers keep matching epoch-boundary rollback snapshots in memory.
	// Off (the default), runs are byte-identical on the wire to a build
	// without the checkpoint layer. See DESIGN.md §8.
	CheckpointDir string
	// Fingerprint is the loaded task's fingerprint (Fingerprint()); stamped
	// into checkpoints so a resume against a different dataset is rejected
	// instead of silently mis-decoding interned terms. Filled by the
	// p2mdie front-end; zero skips the check.
	Fingerprint uint64
	// Trace, when set, observes every simulated cluster event.
	Trace func(cluster.Event)
	// Publish, when set, is called by the master at every completed-epoch
	// boundary — the same quiescent point checkpoints name — with the
	// number of completed epochs and a copy of the theory accepted so far,
	// and once more after the final epoch with the finished theory. The
	// serving integration installs a snapshot writer here
	// (serve.Publisher via `p2mdie -publish`), pipelining learn and serve
	// live. Publishing is master-local and never touches the wire: runs
	// are byte-identical with it on or off. An error aborts the run.
	Publish func(epochsDone int, theory []logic.Clause) error
}

// maxEpochs stops a runaway run.
const maxEpochs = 500

func (c Config) withDefaults() Config {
	c.Search = c.Search.WithDefaults()
	// The stage search emits at most Width rules when constrained.
	c.Search.W = c.Width
	return c
}

// Metrics summarises a parallel run; the fields marked (Table n) feed the
// paper's evaluation tables.
type Metrics struct {
	// Theory is the learned rule set in acceptance order.
	Theory []logic.Clause
	// Epochs is the number of master epochs (Table 5).
	Epochs int
	// VirtualTime is the simulated cluster makespan (Tables 2 and 3).
	VirtualTime time.Duration
	// WallTime is the real elapsed time of the simulation.
	WallTime time.Duration
	// CommBytes is the total payload volume exchanged (Table 4).
	CommBytes int64
	// CommMessages is the total number of messages.
	CommMessages int64
	// Traffic is the per-link byte/message table behind CommBytes — the
	// same accounting on both transports (`p2mdie -traffic json` dumps it).
	Traffic cluster.Traffic
	// RulesLearned counts searched rules accepted into the theory.
	RulesLearned int
	// GroundFactsAdopted counts fallback adoptions of bare examples.
	GroundFactsAdopted int
	// GeneratedRules totals rules evaluated across all searches.
	GeneratedRules int64
	// TotalInferences totals SLD work across all workers.
	TotalInferences int64
	// Workers and Width echo the configuration.
	Workers, Width int
	// Recoveries counts completed membership recoveries (each may absorb
	// several simultaneous worker deaths); zero in a failure-free run.
	Recoveries int
	// LostWorkers counts workers that died during the run.
	LostWorkers int
	// Rebalances counts completed replace redeals — barriers that pooled
	// the alive positives and dealt them back out: one per epoch boundary
	// that admitted joiners, ran under Balance, or ran under
	// RepartitionEachEpoch (however many of the three applied at once).
	Rebalances int
	// JoinedWorkers counts workers admitted mid-run (Network.Spawn or
	// `p2mdie -join`).
	JoinedWorkers int
	// JoinShares records, per admitted joiner in admission order, how many
	// positives its first completed redeal barrier handed it. An
	// admission aborted by a concurrent worker death records nothing (the
	// joiner is provisioned by the recovery path instead), so the list can
	// be shorter than JoinedWorkers.
	JoinShares []int
	// WorkerErrors holds the errors of workers that failed but were
	// recovered around (simulated runs; a TCP worker's error stays in its
	// own process). A successful recovered run keeps them visible instead
	// of silently converting a genuine worker-side bug into a crash.
	WorkerErrors []string
	// StaleDropped counts stale-epoch messages the master superseded by a
	// re-issue — the in-flight residue of recoveries. (Late adoptions are
	// counted here too, but still applied: the worker already retracted
	// the example.)
	StaleDropped int64
	// MasterRestarts counts crash-restart resumes of the master from a
	// durable checkpoint (cumulative across restarts — the counter itself
	// is checkpointed); zero in a run whose master never died.
	MasterRestarts int
	// OrphanReconnects counts worker orphan→rejoin episodes: each time a
	// worker survived a master death and reconnected to the restarted
	// master. Reported by the workers during the resume handshake.
	OrphanReconnects int
	// LinkFlaps counts transient link failures absorbed by the transport's
	// reconnect grace window (DESIGN.md §9) instead of escalating to a
	// peer-death recovery; summed over every node's transport. Zero on
	// transports without a link-session layer or with LinkGrace off.
	LinkFlaps int64
	// ReplayedFrames counts retained frames re-sent over resumed links —
	// the delivery gap the grace window bridged invisibly.
	ReplayedFrames int64
	// FencedFrames counts frames workers rejected for carrying a stale
	// master generation (a superseded master still transmitting after a
	// crash-restart or healed partition); zero in any single-master run.
	FencedFrames int
}

// splitExamples materialises Fig. 5 step 2 — the seeded shuffle +
// round-robin deal of E+ and E− over p workers — as term slices. It is the
// single source of truth for both the simulated master (Learn) and the
// remote one (RunMaster): the cross-transport byte-identical-theory
// guarantee rests on the two producing identical partitions, so neither
// may reimplement this.
func splitExamples(pos, neg []logic.Term, p int, seed int64) (posParts, negParts [][]logic.Term) {
	rng := newRng(seed)
	pi := partition(len(pos), p, rng)
	ni := partition(len(neg), p, rng)
	posParts = make([][]logic.Term, p)
	negParts = make([][]logic.Term, p)
	for k := 0; k < p; k++ {
		posParts[k] = make([]logic.Term, 0, len(pi[k]))
		for _, i := range pi[k] {
			posParts[k] = append(posParts[k], pos[i])
		}
		negParts[k] = make([]logic.Term, 0, len(ni[k]))
		for _, i := range ni[k] {
			negParts[k] = append(negParts[k], neg[i])
		}
	}
	return posParts, negParts
}

// partition splits indices 0..n-1 into p groups by seeded shuffle plus
// round-robin deal, the "randomly and evenly partitions" of Fig. 5.
func partition(n, p int, rng *rngState) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.shuffle(idx)
	out := make([][]int, p)
	for i, v := range idx {
		out[i%p] = append(out[i%p], v)
	}
	return out
}

// rngState is a tiny deterministic generator (xorshift64*), avoiding a
// dependency on math/rand state sharing across goroutines.
type rngState struct{ s uint64 }

func newRng(seed int64) *rngState {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rngState{s: s}
}

func (r *rngState) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rngState) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rngState) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
