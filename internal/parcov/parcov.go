// Package parcov implements the related-work baseline the paper compares
// against in §6: data-parallel *coverage testing* (Graham et al. 2003;
// Konstantopoulos 2003). The master runs the ordinary sequential MDIE
// covering loop — saturation, search, bag-keeping all serial — and only the
// coverage test of each candidate rule is farmed out: every worker scores
// the rule on its local partition and the master sums the counts.
//
// The point of the baseline is granularity: one message round-trip per
// candidate rule is fine-grained parallelism, so serial search overhead and
// per-message latency bound the achievable speedup (Amdahl), whereas
// p²-mdie parallelises the searches themselves and cuts the epoch count.
// The ablation benchmark contrasts the two on the same simulated cluster.
package parcov

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bottom"
	"repro/internal/cluster"
	"repro/internal/logic"
	"repro/internal/mode"
	"repro/internal/search"
	"repro/internal/solve"
)

// Config parameterises a parallel-coverage run.
type Config struct {
	// Workers is the number of coverage-testing workers.
	Workers int
	// Seed drives the example partitioning.
	Seed int64
	// Search, Bottom, Budget configure the (serial) learner.
	Search search.Settings
	Bottom bottom.Options
	Budget solve.Budget
	// Cost is the simulated cluster cost model.
	Cost cluster.CostModel
}

// maxRules bounds the covering loop.
const maxRules = 1000

// Metrics summarises a run.
type Metrics struct {
	Theory             []logic.Clause
	VirtualTime        time.Duration
	WallTime           time.Duration
	CommBytes          int64
	CommMessages       int64
	Traffic            cluster.Traffic
	Searches           int
	GeneratedRules     int
	RulesLearned       int
	GroundFactsAdopted int
	TotalInferences    int64
	Workers            int
}

// Protocol kinds.
const (
	// Kinds 0 and 1 were the per-rule coverage query and reply, retired
	// for one-rule batches; the numbers are not reused, so a build that
	// still sends them fails on "unknown kind" instead of misdecoding.
	kindRetractRule = iota + 2
	kindRetractOne
	kindStop
	// 5, 6: retired (were kindLoad / kindFinal, a multi-process worker's
	// partition shipment and end-of-run report; simulated workers are built
	// with their partition). Not reused.
	_
	_
	// kindEvalBatch (master→workers) carries a whole search frontier —
	// every candidate rule of one node expansion — in one message per
	// worker, with per-rule candidate masks. One kindEvalBatchResult comes
	// back per worker. This collapses the per-candidate round trips of the
	// fine-grained baseline into one round trip per expanded node: the
	// latency term that bounds parcov's speedup shrinks by the frontier
	// size, while the evaluation semantics (and inference totals) are
	// unchanged.
	kindEvalBatch
	// kindEvalBatchResult (worker→master) returns per-rule local bitsets
	// for one kindEvalBatch query.
	kindEvalBatchResult
)

// evalBatchMsg carries one whole frontier (see kindEvalBatch): rule i is
// evaluated under PosCands[i]/NegCands[i] (per-worker candidate masks in
// the local index space) when HasCand[i], over everything otherwise — so
// workers keep the incremental-evaluation shortcut the sequential learner
// enjoys: only examples the parent rule covered are re-tested. Seq numbers
// the coordinator's queries; workers echo it, and the coordinator's
// dispatch loop drops replies to superseded queries instead of misfolding
// them.
type evalBatchMsg struct {
	Seq      int64
	Rules    []logic.Clause
	PosCands [][]uint64
	NegCands [][]uint64
	HasCand  []bool
}

// evalBatchResultMsg returns one worker's local bitsets (words over its
// alive local examples) for every rule of a kindEvalBatch query, in rule
// order.
type evalBatchResultMsg struct {
	Seq    int64
	Worker int
	Pos    [][]uint64
	Neg    [][]uint64
}

type retractRuleMsg struct{ Rule logic.Clause }

type retractOneMsg struct{ Example logic.Term }

type stopMsg struct{}

// pcWorker owns one example partition, handed to it at construction, and
// answers coverage queries until kindStop.
type pcWorker struct {
	id   int
	node *cluster.Node
	m    *solve.Machine
	ex   *search.Examples
	ev   *search.Evaluator
}

func (w *pcWorker) run() error {
	for {
		msg, err := w.node.ReceiveCtx(context.Background())
		if errors.Is(err, cluster.ErrClosed) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("parcov: worker %d: receive: %w", w.id, err)
		}
		switch msg.Kind {
		case kindEvalBatch:
			var bm evalBatchMsg
			if err := msg.Decode(&bm); err != nil {
				return err
			}
			rules := make([]*logic.Clause, len(bm.Rules))
			posCands := make([]search.Bitset, len(bm.Rules))
			negCands := make([]search.Bitset, len(bm.Rules))
			for i := range bm.Rules {
				rules[i] = &bm.Rules[i]
				if !bm.HasCand[i] {
					continue
				}
				posCands[i], negCands[i] = bm.PosCands[i], bm.NegCands[i]
				// Siblings arrive with equal masks in arrays of their own;
				// a query pack runs together only rules sharing the arrays.
				if i > 0 && bm.HasCand[i-1] && slices.Equal(bm.PosCands[i], bm.PosCands[i-1]) && slices.Equal(bm.NegCands[i], bm.NegCands[i-1]) {
					posCands[i], negCands[i] = posCands[i-1], negCands[i-1]
				}
			}
			before := w.m.TotalInferences()
			res := w.ev.CoverageBatch(rules, posCands, negCands)
			out := evalBatchResultMsg{
				Seq:    bm.Seq,
				Worker: w.id,
				Pos:    make([][]uint64, len(res)),
				Neg:    make([][]uint64, len(res)),
			}
			for i, r := range res {
				out.Pos[i], out.Neg[i] = r.Pos, r.Neg
			}
			// One compute charge for the whole frontier: the inference sum
			// equals rule-at-a-time evaluation exactly.
			w.node.Compute(w.m.TotalInferences() - before)
			if err := w.node.Send(0, kindEvalBatchResult, out); err != nil {
				return err
			}
		case kindRetractRule:
			var rm retractRuleMsg
			if err := msg.Decode(&rm); err != nil {
				return err
			}
			before := w.m.TotalInferences()
			covered, _ := w.ev.Coverage(&rm.Rule, nil, nil)
			w.ex.RetractPos(covered)
			w.node.Compute(w.m.TotalInferences() - before)
		case kindRetractOne:
			var rm retractOneMsg
			if err := msg.Decode(&rm); err != nil {
				return err
			}
			for i := range w.ex.Pos {
				if logic.Equal(w.ex.Pos[i], rm.Example) {
					single := search.NewBitset(len(w.ex.Pos))
					single.Set(i)
					w.ex.RetractPos(single)
					break
				}
			}
			w.node.Compute(1)
		case kindStop:
			return nil
		default:
			return fmt.Errorf("parcov: worker %d: unknown kind %d", w.id, msg.Kind)
		}
	}
}

// distCoverer satisfies search.Coverer by broadcasting each rule to the
// workers and stitching their local bitsets into the global index space.
// Its receive loop is event-driven in the same style as core's master:
// each query carries a fresh Seq, replies are matched to the current query
// and deduplicated per worker, and replies to superseded queries are
// dropped rather than misfolded — so the coordinator state machine is
// robust to out-of-order and leftover traffic, not just to the strict
// request/response interleaving of the failure-free path.
type distCoverer struct {
	node    *cluster.Node
	p       int
	targets []int
	posMap  [][]int // worker (0-based) → local index → global index
	negMap  [][]int
	nPos    int
	nNeg    int
	seq     int64 // current query number
	err     error
}

var _ search.Coverer = (*distCoverer)(nil)
var _ search.BatchCoverer = (*distCoverer)(nil)

func (d *distCoverer) PosLen() int { return d.nPos }
func (d *distCoverer) NegLen() int { return d.nNeg }

// CoverageBatch evaluates a whole search frontier in one message per
// worker (kindEvalBatch) instead of one per rule: the search layer's
// CoverageBatchOf dispatches here natively, so a node expansion costs one
// round trip regardless of how many candidates it generated. Results are
// bit-for-bit identical to len(rules) Coverage calls, and inference
// accounting is unchanged; only message count (and with it the simulated
// latency bill) drops.
func (d *distCoverer) CoverageBatch(rules []*logic.Clause, posCands, negCands []search.Bitset) []search.CoverResult {
	out := make([]search.CoverResult, len(rules))
	for i := range out {
		out[i].Pos = search.NewBitset(d.nPos)
		out[i].Neg = search.NewBitset(d.nNeg)
	}
	if d.err != nil || len(rules) == 0 {
		return out
	}
	d.seq++
	for k := 0; k < d.p; k++ {
		bm := evalBatchMsg{
			Seq:      d.seq,
			Rules:    make([]logic.Clause, len(rules)),
			PosCands: make([][]uint64, len(rules)),
			NegCands: make([][]uint64, len(rules)),
			HasCand:  make([]bool, len(rules)),
		}
		for i, r := range rules {
			bm.Rules[i] = *r
			var pc, nc search.Bitset
			if posCands != nil {
				pc = posCands[i]
			}
			if negCands != nil {
				nc = negCands[i]
			}
			if pc != nil && nc != nil {
				bm.HasCand[i] = true
				bm.PosCands[i] = localize(pc, d.posMap[k])
				bm.NegCands[i] = localize(nc, d.negMap[k])
			}
		}
		if err := d.node.Send(d.targets[k], kindEvalBatch, bm); err != nil {
			d.err = err
			return out
		}
	}
	pending := make(map[int]bool, d.p)
	for _, t := range d.targets {
		pending[t] = true
	}
	for len(pending) > 0 {
		msg, err := d.node.ReceiveCtx(context.Background())
		if err != nil {
			d.err = fmt.Errorf("parcov: master: waiting for batch evaluation reply: %w", err)
			return out
		}
		if msg.Kind == cluster.KindPeerDown {
			// Fail-stop kept deliberately (p²-mdie is the recovering
			// engine); share-dealing policy moved to sched, not the
			// failure model.
			d.err = fmt.Errorf("parcov: master: worker %d failed", msg.From)
			return out
		}
		if msg.Kind != kindEvalBatchResult {
			d.err = fmt.Errorf("parcov: master: bad batch evaluation reply (kind=%d)", msg.Kind)
			return out
		}
		var br evalBatchResultMsg
		if err := msg.Decode(&br); err != nil {
			d.err = err
			return out
		}
		if br.Seq < d.seq {
			continue // reply to a superseded query
		}
		if br.Seq > d.seq || br.Worker < 1 || br.Worker > d.p || !pending[br.Worker] || len(br.Pos) != len(rules) || len(br.Neg) != len(rules) {
			d.err = fmt.Errorf("parcov: master: unexpected batch reply (seq=%d worker=%d rules=%d, current seq=%d)", br.Seq, br.Worker, len(br.Pos), d.seq)
			return out
		}
		delete(pending, br.Worker)
		w := br.Worker - 1
		for i := range rules {
			scatter(search.Bitset(br.Pos[i]), d.posMap[w], out[i].Pos)
			scatter(search.Bitset(br.Neg[i]), d.negMap[w], out[i].Neg)
		}
	}
	for i := range rules {
		var pc, nc search.Bitset
		if posCands != nil {
			pc = posCands[i]
		}
		if negCands != nil {
			nc = negCands[i]
		}
		if pc != nil {
			out[i].Pos.AndWith(pc)
		}
		if nc != nil {
			out[i].Neg.AndWith(nc)
		}
	}
	return out
}

// Coverage is a one-rule CoverageBatch: still one message per worker each
// way, so per-rule callers pay the fine-grained round trip the baseline is
// about.
func (d *distCoverer) Coverage(rule *logic.Clause, posCand, negCand search.Bitset) (search.Bitset, search.Bitset) {
	r := d.CoverageBatch([]*logic.Clause{rule}, []search.Bitset{posCand}, []search.Bitset{negCand})[0]
	return r.Pos, r.Neg
}

// scatter maps local bitset positions through idxMap into the global set.
func scatter(local search.Bitset, idxMap []int, global search.Bitset) {
	local.ForEach(func(i int) bool {
		if i < len(idxMap) {
			global.Set(idxMap[i])
		}
		return true
	})
}

// localize projects a global mask into one worker's local index space.
func localize(global search.Bitset, idxMap []int) []uint64 {
	local := search.NewBitset(len(idxMap))
	for li, gi := range idxMap {
		if global.Get(gi) {
			local.Set(li)
		}
	}
	return local
}

// Learn runs the parallel-coverage-testing covering algorithm.
func Learn(kb *solve.KB, pos, neg []logic.Term, ms *mode.Set, cfg Config) (*Metrics, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("parcov: Workers must be ≥ 1, got %d", cfg.Workers)
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("parcov: no positive examples")
	}
	p := cfg.Workers
	nw, dc, workers := newCluster(kb, pos, neg, cfg)
	masterNode, targets := dc.node, dc.targets

	met := &Metrics{Workers: p}
	start := time.Now()
	errCh := make(chan error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for _, w := range workers {
		go func(w *pcWorker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errCh <- fmt.Errorf("parcov: worker %d panicked: %v", w.id, r)
					nw.Shutdown()
				}
			}()
			if err := w.run(); err != nil {
				errCh <- err
				nw.Shutdown()
			}
		}(w)
	}

	masterErr := runMaster(masterNode, kb, pos, ms, cfg, dc, met)
	if masterErr == nil {
		masterErr = masterNode.Broadcast(targets, kindStop, stopMsg{})
	}
	if masterErr != nil {
		nw.Shutdown()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return nil, err
		}
	}
	if masterErr != nil {
		return nil, masterErr
	}
	if dc.err != nil {
		return nil, dc.err
	}

	met.WallTime = time.Since(start)
	met.VirtualTime = nw.Makespan().Duration()
	st := nw.Stats()
	met.CommBytes = st.Bytes
	met.CommMessages = st.Messages
	met.Traffic = nw.Traffic()
	for _, w := range workers {
		met.TotalInferences += w.m.TotalInferences()
	}
	return met, nil
}

// newCluster builds the simulated network of Learn: p workers, each with
// its deal of the examples and an evaluator over them, and the master's
// distCoverer on node 0. Nothing runs until the workers are started.
func newCluster(kb *solve.KB, pos, neg []logic.Term, cfg Config) (*cluster.Network, *distCoverer, []*pcWorker) {
	p := cfg.Workers
	nw := cluster.NewNetwork(p+1, cfg.Cost)

	// Partition examples. Positives are dealt exactly as core.splitExamples
	// deals them, but negatives come from a second generator seeded Seed+1
	// where core continues the first, so the negative partitions differ.
	// Changing that would move every Ablation B cell.
	posMap := dealOut(len(pos), p, cfg.Seed) // worker → local index → global index
	negMap := dealOut(len(neg), p, cfg.Seed+1)
	workers := make([]*pcWorker, p)
	for k := 0; k < p; k++ {
		var wpos, wneg []logic.Term
		for _, gi := range posMap[k] {
			wpos = append(wpos, pos[gi])
		}
		for _, gi := range negMap[k] {
			wneg = append(wneg, neg[gi])
		}
		m := solve.NewMachine(kb, cfg.Budget)
		ex := search.NewExamples(wpos, wneg)
		workers[k] = &pcWorker{id: k + 1, node: nw.Node(k + 1), m: m, ex: ex, ev: search.NewEvaluator(m, ex)}
	}

	targets := make([]int, p)
	for i := range targets {
		targets[i] = i + 1
	}
	dc := &distCoverer{node: nw.Node(0), p: p, targets: targets, posMap: posMap, negMap: negMap, nPos: len(pos), nNeg: len(neg)}
	return nw, dc, workers
}

// runMaster is the serial covering loop with distributed coverage tests.
func runMaster(node *cluster.Node, kb *solve.KB, pos []logic.Term, ms *mode.Set, cfg Config, dc *distCoverer, met *Metrics) error {
	m := solve.NewMachine(kb, cfg.Budget) // master machine: saturation only
	alive := search.FullBitset(len(pos))
	targets := dc.targets

	for !alive.Empty() && len(met.Theory) < maxRules {
		if dc.err != nil {
			return dc.err
		}
		seed := -1
		alive.ForEach(func(i int) bool { seed = i; return false })
		before := m.TotalInferences()
		bot, err := bottom.Construct(m, ms, pos[seed], cfg.Bottom)
		node.Compute(m.TotalInferences() - before)
		if err != nil {
			return err
		}
		sr := search.LearnRule(dc, bot, nil, cfg.Search)
		met.Searches++
		met.GeneratedRules += sr.Generated
		best := sr.Best()
		if best == nil || best.PosCover().Empty() {
			alive.Clear(seed)
			met.Theory = append(met.Theory, logic.Fact(pos[seed]))
			met.GroundFactsAdopted++
			if err := node.Broadcast(targets, kindRetractOne, retractOneMsg{Example: pos[seed]}); err != nil {
				return err
			}
			continue
		}
		clause := best.Materialize(bot).Canonical()
		met.Theory = append(met.Theory, clause)
		met.RulesLearned++
		alive.AndNotWith(best.PosCover())
		if err := node.Broadcast(targets, kindRetractRule, retractRuleMsg{Rule: clause}); err != nil {
			return err
		}
	}
	met.TotalInferences += m.TotalInferences()
	return nil
}

// dealOut splits 0..n-1 into p seeded-shuffled round-robin groups.
func dealOut(n, p int, seed int64) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545F4914F6CDD1D
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([][]int, p)
	for i, v := range idx {
		out[i%p] = append(out[i%p], v)
	}
	return out
}
