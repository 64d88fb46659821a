package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/solve"
)

// receiveWithTimeout is the one blocking receive used by master and
// workers: context-based, so a deadline (when configured) or a transport
// failure unblocks it with an error instead of deadlocking the protocol.
func receiveWithTimeout(t cluster.Transport, timeout time.Duration) (cluster.Message, error) {
	if timeout <= 0 {
		return t.ReceiveCtx(context.Background())
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return t.ReceiveCtx(ctx)
}

// Fingerprint summarises the loaded task for the netcluster join
// handshake. Payloads reference interned symbol indices, so master and
// workers must have built identical symbol tables — which they do exactly
// when they loaded the same dataset the same way. The fingerprint hashes
// the symbol table in intern order plus the examples and the background
// size; a worker started on different data is rejected at join time
// instead of silently mis-decoding every message. Search settings are not
// part of the fingerprint: the master ships those in the load message.
func Fingerprint(kb *solve.KB, pos, neg []logic.Term) uint64 {
	h := fnv.New64a()
	write := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	write("p2mdie-fp-v1")
	write(fmt.Sprintf("syms=%d", logic.NumSymbols()))
	for i := 0; i < logic.NumSymbols(); i++ {
		write(logic.Symbol(i).Name())
	}
	write(fmt.Sprintf("kb=%d", kb.Size()))
	write(fmt.Sprintf("pos=%d", len(pos)))
	for _, e := range pos {
		write(e.String())
	}
	write(fmt.Sprintf("neg=%d", len(neg)))
	for _, e := range neg {
		write(e.String())
	}
	return h.Sum64()
}

// RunWorker drives one multi-process p²-mdie worker over an established
// transport (normally a netcluster node joined via ServeOn or Join): it
// waits for its partition and settings in kindLoad, serves the pipeline
// protocol, and reports its totals on kindStop. The background knowledge
// and mode set are the worker's share of the paper's shared filesystem;
// everything else comes from the master. Panics are converted to errors so
// a bug in one worker surfaces at the master as a link failure, not a
// hang.
func RunWorker(t cluster.Transport, kb *solve.KB, ms *mode.Set, cfg Config) (err error) {
	if t.ID() < 1 {
		return fmt.Errorf("core: RunWorker needs a worker node id (≥ 1), got %d", t.ID())
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: worker %d panicked: %v", t.ID(), r)
		}
	}()
	cfg = cfg.withDefaults()
	if err := checkLinkGrace(t, cfg); err != nil {
		return err
	}
	w := newRemoteWorker(t, kb, ms, cfg)
	return w.run()
}

// checkLinkGrace rejects a transport whose link-reconnect grace window
// (DESIGN.md §9) is as long as the protocol's receive timeout: the grace
// window is supposed to hide a transient partition INSIDE a receive wait,
// so one that can outlast the wait guarantees a spurious protocol timeout
// on every flap instead of a seamless replay.
func checkLinkGrace(t cluster.Transport, cfg Config) error {
	lg, ok := as[linkGracer](t)
	if !ok {
		return nil
	}
	grace := lg.LinkGrace()
	if grace > 0 && cfg.RecvTimeout > 0 && grace >= cfg.RecvTimeout {
		return fmt.Errorf("core: link grace window %s must be shorter than RecvTimeout %s (a flap must heal inside one receive wait)",
			grace, cfg.RecvTimeout)
	}
	return nil
}

// RunMaster drives the p²-mdie master over an established transport whose
// peers are RunWorker processes: it partitions the examples exactly as the
// simulated Learn does (same seeded shuffle, same deal), ships each
// worker its partition, runs the epochs of Fig. 5, and assembles Metrics
// from the workers' final reports. With the same dataset, seed and
// settings, the learned theory is byte-identical to Learn's. On error the
// caller must Abort the underlying transport so workers see the failure
// instead of waiting on a heartbeat-alive but silent master.
func RunMaster(t cluster.Transport, pos, neg []logic.Term, cfg Config) (*Metrics, error) {
	cfg = cfg.withDefaults()
	p := t.Size() - 1
	if t.ID() != 0 {
		return nil, fmt.Errorf("core: RunMaster needs node id 0, got %d", t.ID())
	}
	if p < 1 {
		return nil, fmt.Errorf("core: RunMaster needs ≥ 1 worker, transport has %d nodes", t.Size())
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("core: no positive examples")
	}

	// Fig. 5 step 2: the same random even partition as the simulation
	// (shared splitExamples — the byte-identity guarantee depends on it).
	posParts, negParts := splitExamples(pos, neg, p, cfg.Seed)
	parts := make([]loadDataMsg, p)
	for k := 0; k < p; k++ {
		parts[k] = cfg.loadSettings()
		parts[k].Pos = posParts[k]
		parts[k].Neg = negParts[k]
	}
	ma := newMaster(t, p, cfg, &Metrics{Workers: p, Width: cfg.Width}, len(pos), posParts, negParts)
	ma.parts = parts
	return runRemote(ma)
}

// runRemote is the tail RunMaster and ResumeMaster share: it validates the
// configuration against the transport, runs the master, and assembles
// Metrics from the workers' final reports. The simulation reads clocks,
// work totals and traffic off the worker structs; here they arrive in the
// reports, which carry cumulative totals — a resumed master's workers
// survived the crash, so inference and rule counts stay continuous across
// a restart. The master's own traffic table restarts from zero on a
// resume; the paper's Table-4 numbers are only claimed for failure-free
// runs.
func runRemote(ma *master) (*Metrics, error) {
	t := ma.node
	if ma.cfg.CheckpointDir != "" && ma.cfg.AddLearnedToBK {
		return nil, fmt.Errorf("core: CheckpointDir is incompatible with AddLearnedToBK: rollback cannot retract asserted rules")
	}
	if err := checkLinkGrace(t, ma.cfg); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := ma.run(); err != nil {
		return nil, err
	}
	metrics := ma.metrics
	metrics.Theory = ma.theory
	metrics.WallTime = time.Since(start)

	// The table is sized to the transport's final node count (joins may
	// have grown it) and Merge folds smaller per-node reports in by link
	// identity.
	traffic := cluster.NewTraffic(t.Size())
	if tr, ok := t.(cluster.TrafficReporter); ok {
		traffic.Merge(tr.Traffic())
	}
	makespan := t.Clock()
	for _, r := range ma.finals {
		fm := r.(*finalMsg)
		metrics.TotalInferences += fm.Inferences
		metrics.GeneratedRules += fm.Generated
		metrics.FencedFrames += fm.Fenced
		metrics.LinkFlaps += fm.Flaps
		metrics.ReplayedFrames += fm.Replayed
		if c := cluster.VTime(fm.Clock); c > makespan {
			makespan = c
		}
		traffic.Merge(fm.Traffic)
	}
	if ls, ok := as[linkStatser](t); ok {
		flaps, replayed := ls.LinkStats()
		metrics.LinkFlaps += flaps
		metrics.ReplayedFrames += replayed
	}
	metrics.VirtualTime = makespan.Duration()
	metrics.Traffic = traffic
	metrics.CommBytes = traffic.TotalBytes()
	metrics.CommMessages = traffic.TotalMsgs()
	return metrics, nil
}
