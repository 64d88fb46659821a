package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parcov"
)

// Protocol message kinds, by number (core keeps the names private; CI's
// kindNN benches use the numbers the same way).
const (
	kindLoad       = 0
	kindStage      = 2
	kindRules      = 3
	kindEvaluate   = 4
	kindEvalResult = 5
)

const simWorkers = 4

// p2Config is the p²-mdie configuration both parallel workloads run: the
// paper's width-10 pipeline, partitioned as cmd/ilpbench partitions fold 0.
func p2Config(t *task, workers int) core.Config {
	ds := t.ds
	return core.Config{
		Workers: workers, Width: 10, Seed: partitionSeed,
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
		Cost: cluster.DefaultCostModel,
	}
}

func p2Outcome(met *core.Metrics) outcome {
	return outcome{
		TheorySHA:  theorySHA(met.Theory),
		Epochs:     met.Epochs,
		Inferences: met.TotalInferences,
		WireBytes:  met.CommBytes,
		WireMsgs:   met.CommMessages,
	}
}

// simLearn is one core.Learn call on the simulated cluster.
func simLearn(t *task, cfg core.Config) (*repResult, error) {
	var met *core.Metrics
	wall, cpu, err := measure(func() (err error) {
		met, err = core.Learn(t.ds.KB, t.fold.TrainPos, t.fold.TrainNeg, t.ds.Modes, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &repResult{out: p2Outcome(met), theory: met.Theory, wall: wall, cpu: cpu, met: met}, nil
}

// simWorkload is p2-sim-carcino: the paper's algorithm as `p2mdie -workers 4`
// runs it — four worker goroutines and a master on the in-process cluster.
func simWorkload(o options) learnWorkload {
	return learnWorkload{
		rep: func(t *task) (*repResult, error) { return simLearn(t, p2Config(t, simWorkers)) },
		traced: func(t *task, tr *tracer) (*repResult, func(*metricSet), error) {
			// Every cluster event stamped with the wall clock, every epoch
			// boundary through the Publish hook.
			rec := &simRecorder{}
			cfg := p2Config(t, simWorkers)
			cfg.Trace = rec.event
			cfg.Publish = rec.epoch
			start := time.Now()
			res, err := simLearn(t, cfg)
			if err != nil {
				return nil, nil, err
			}
			lanes := rec.spans(tr, 1, start, start.Add(res.wall))
			return res, func(ms *metricSet) {
				lanes.record(ms, simWorkers)
				recordP2(ms, res.met)
				recordWireKinds(ms, rec.bytesByKind())
				ms.set("core.epoch_wall_ms", median(rec.epochMs(start)))
				ms.set("cluster.events", float64(len(rec.events)))
				ms.set("cluster.virtual_makespan_s", res.met.VirtualTime.Seconds())
				ms.set("cluster.virtual_busy_share", rec.virtualBusyShare(simWorkers, res.met.VirtualTime))
			}, nil
		},
		probes: func(t *task, tr *tracer, ms *metricSet, base time.Duration, traced *repResult) error {
			makespan := traced.met.VirtualTime.Seconds()
			ms.set("cluster.sim_vs_wall_ratio", makespan/base.Seconds())

			// The sequential learner on the same data gives the paper's
			// Table 2 cell (sequential work over parallel makespan) and the
			// bottom/search/coverage split of this dataset.
			sh, err := shadowCovering(t, tr, 2, 0)
			if err != nil {
				return err
			}
			sh.record(ms)
			seqVirtual := float64(sh.res.out.Inferences) * cluster.DefaultCostModel.NsPerInference / 1e9
			ms.set("cluster.virtual_speedup", seqVirtual/makespan)

			// One repetition with throughput-aware rebalancing on.
			bal := p2Config(t, simWorkers)
			bal.Balance = true
			balRes, err := simLearn(t, bal)
			if err != nil {
				return fmt.Errorf("balance repetition: %w", err)
			}
			ms.set("sched.balance_wall_ratio", float64(balRes.wall)/float64(base))
			ms.set("sched.rebalances", float64(balRes.met.Rebalances))

			// The coverage-farming baseline on the same data.
			pm, err := parcov.Learn(t.ds.KB, t.fold.TrainPos, t.fold.TrainNeg, t.ds.Modes, parcov.Config{
				Workers: simWorkers, Seed: partitionSeed,
				Search: t.ds.Search, Bottom: t.ds.Bottom, Budget: t.ds.Budget,
				Cost: cluster.DefaultCostModel,
			})
			if err != nil {
				return fmt.Errorf("parcov repetition: %w", err)
			}
			ms.set("parcov.wall_s", pm.WallTime.Seconds())
			ms.set("parcov.msgs", float64(pm.CommMessages))
			return nil
		},
	}
}

// recordP2 writes the counts a p²-mdie run reports about itself.
func recordP2(ms *metricSet, met *core.Metrics) {
	ms.set("core.epochs", float64(met.Epochs))
	ms.set("core.rules_learned", float64(met.RulesLearned))
	ms.set("core.adopted_facts", float64(met.GroundFactsAdopted))
	ms.set("core.generated_rules", float64(met.GeneratedRules))
	ms.set("core.stale_dropped", float64(met.StaleDropped))
	ms.set("wire.bytes_total", float64(met.CommBytes))
	ms.set("wire.msgs_total", float64(met.CommMessages))
	if met.Epochs > 0 {
		ms.set("wire.bytes_per_epoch", float64(met.CommBytes)/float64(met.Epochs))
		ms.set("wire.msgs_per_epoch", float64(met.CommMessages)/float64(met.Epochs))
	}
}

func recordWireKinds(ms *metricSet, bytes map[int]int64) {
	ms.set("wire.bytes_k00", float64(bytes[kindLoad]))
	ms.set("wire.bytes_k02", float64(bytes[kindStage]))
	ms.set("wire.bytes_k03", float64(bytes[kindRules]))
	ms.set("wire.bytes_k04", float64(bytes[kindEvaluate]))
	ms.set("wire.bytes_k05", float64(bytes[kindEvalResult]))
}

// simRecorder is the Config.Trace / Config.Publish observer: it stamps every
// simulated-cluster event and every epoch boundary with the wall clock.
// Events arrive from every node's goroutine.
type simRecorder struct {
	mu     sync.Mutex
	events []simEvent
	epochs []time.Time
}

type simEvent struct {
	cluster.Event
	at time.Time
}

func (r *simRecorder) event(e cluster.Event) {
	now := time.Now()
	r.mu.Lock()
	r.events = append(r.events, simEvent{e, now})
	r.mu.Unlock()
}

func (r *simRecorder) epoch(int, []logic.Clause) error {
	now := time.Now()
	r.mu.Lock()
	r.epochs = append(r.epochs, now)
	r.mu.Unlock()
	return nil
}

// epochMs is the wall time of each epoch: the gaps between boundaries. (The
// hook fires once more after the last epoch with the finished theory; that
// zero-length gap is dropped.)
func (r *simRecorder) epochMs(start time.Time) []float64 {
	var out []float64
	prev := start
	for _, at := range r.epochs {
		if d := at.Sub(prev); d > 50*time.Microsecond {
			out = append(out, millis(d))
		}
		prev = at
	}
	return out
}

func (r *simRecorder) bytesByKind() map[int]int64 {
	out := map[int]int64{}
	for _, e := range r.events {
		if e.Type == cluster.EvSend {
			out[e.Kind] += int64(e.Bytes)
		}
	}
	return out
}

// virtualBusyShare is the share of the virtual makespan the workers spent
// computing: a compute event advances its node's clock by exactly the work
// charged, so the step since the node's previous event is the busy time.
func (r *simRecorder) virtualBusyShare(workers int, makespan time.Duration) float64 {
	last := map[int]cluster.VTime{}
	var busy cluster.VTime
	for _, e := range r.events {
		if e.Type == cluster.EvCompute && e.Node > 0 {
			busy += e.Clock - last[e.Node]
		}
		last[e.Node] = e.Clock
	}
	if makespan <= 0 {
		return 0
	}
	return float64(busy.Duration()) / (float64(workers) * float64(makespan))
}

// nodeTimes is one node's wall-clock split over a repetition.
type nodeTimes struct {
	wall, recvWait, send time.Duration
	stage, evaluate      []float64 // handling spans in ms
}

// laneTimes is the per-node split of a parallel repetition, node 0 first.
type laneTimes []nodeTimes

// spans turns the event stream into one lane per node: the interval ending
// at a receive is the node waiting for (and decoding) that message, the
// interval ending at a compute event is the work it reports, the interval
// ending at a send is encoding and enqueueing. On two cores the five
// goroutines also wait for a processor; that wait is inside these
// intervals, which is why this is wall time, not CPU time.
func (r *simRecorder) spans(tr *tracer, op int, start, end time.Time) laneTimes {
	byNode := map[int][]simEvent{}
	for _, e := range r.events {
		byNode[e.Node] = append(byNode[e.Node], e)
	}
	out := make(laneTimes, len(byNode))
	for node, events := range byNode {
		lane := laneName(node)
		root := tr.open(lane, "rep", 0, op, start)
		nt := nodeTimes{wall: end.Sub(start)}
		prev, recvKind, recvAt, busyUntil := start, -1, start, start
		flush := func() {
			switch recvKind {
			case kindStage:
				nt.stage = append(nt.stage, millis(busyUntil.Sub(recvAt)))
			case kindEvaluate:
				nt.evaluate = append(nt.evaluate, millis(busyUntil.Sub(recvAt)))
			}
		}
		for _, e := range events {
			d := e.at.Sub(prev)
			name := "compute"
			switch e.Type {
			case cluster.EvReceive:
				name = "recv-wait"
				nt.recvWait += d
				flush()
				recvKind, recvAt, busyUntil = e.Kind, e.at, e.at
			case cluster.EvSend:
				name = fmt.Sprintf("send k%02d", e.Kind)
				nt.send += d
				busyUntil = e.at
			default:
				busyUntil = e.at
			}
			tr.add(lane, name, root, op, prev, e.at)
			prev = e.at
		}
		flush()
		tr.close(root, end)
		if node < len(out) {
			out[node] = nt
		}
	}
	return out
}

func laneName(node int) string {
	if node == 0 {
		return "master"
	}
	return fmt.Sprintf("worker%d", node)
}

// record writes the master's split and the workers' mean split.
func (lt laneTimes) record(ms *metricSet, workers int) {
	if len(lt) != workers+1 {
		return
	}
	m := lt[0]
	ms.set("core.master_recv_wait_s", m.recvWait.Seconds())
	ms.set("core.master_send_s", m.send.Seconds())
	ms.set("core.master_self_s", (m.wall - m.recvWait - m.send).Seconds())
	var recv, send, compute, wall time.Duration
	var stage, evaluate []float64
	for _, w := range lt[1:] {
		recv += w.recvWait
		send += w.send
		compute += w.wall - w.recvWait - w.send
		wall += w.wall
		stage = append(stage, w.stage...)
		evaluate = append(evaluate, w.evaluate...)
	}
	n := time.Duration(workers)
	ms.set("core.worker_recv_wait_s", (recv / n).Seconds())
	ms.set("core.worker_send_s", (send / n).Seconds())
	ms.set("core.worker_compute_s", (compute / n).Seconds())
	ms.set("core.worker_busy_share", float64(compute)/float64(wall))
	ms.set("core.stage_span_ms", median(stage))
	ms.set("core.evaluate_span_ms", median(evaluate))
}
