package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bottom"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/search"
	"repro/internal/solve"
)

// repResult is one complete learn call as seen from outside.
type repResult struct {
	out    outcome
	theory []logic.Clause
	wall   time.Duration
	cpu    time.Duration
	met    *core.Metrics // nil for the sequential learner
}

// learnWorkload is what distinguishes the three learn workloads; runLearn
// drives all of them through the same set-up → warm → timed → traced shape.
type learnWorkload struct {
	// prepare runs in every set-up after the task is generated and its KB
	// compiled (the TCP workload brings a cluster up and down once).
	prepare func(t *task) error
	// rep runs one complete, untraced learn call; an error ends the run.
	rep func(t *task) (*repResult, error)
	// verify, when set, cross-checks a finished repetition against an
	// independent computation of the same result (TCP against simulated).
	verify func(t *task, res *repResult) error
	// traced runs one traced repetition, its spans going to tr; the returned
	// func records the per-layer metrics that repetition saw.
	traced func(t *task, tr *tracer) (res *repResult, record func(ms *metricSet), err error)
	// probes runs the workload's one-off measurements: repetitions in other
	// configurations and layer probes on its data. base is the median
	// untraced wall, traced the last traced repetition.
	probes func(t *task, tr *tracer, ms *metricSet, base time.Duration, traced *repResult) error
}

// setupTime is how long a learn workload keeps setting up from scratch: one
// set-up takes 2–100 ms, and only the median of dozens of them repeats
// within setup_s's bound.
const setupTime = 2 * time.Second

// tracedReps is how many times the traced repetition runs: its wall is
// compared with the untraced median, and on a shared box one run of either
// swings by more than the overhead being measured.
const tracedReps = 5

// measure times one learn call: wall and process CPU around fn.
func measure(fn func() error) (wall, cpu time.Duration, err error) {
	cpu0, start := cpuTime(), time.Now()
	err = fn()
	return time.Since(start), cpuTime() - cpu0, err
}

func runLearn(o options, w learnWorkload) (*report, error) {
	spec := taskSpecs[o.workload][o.size()]
	chk, err := newChecker(o)
	if err != nil {
		return nil, err
	}
	r := newReport(o)

	// Set-up is everything that comes before the first learn call: generate
	// the dataset, split the folds, compile the KB and whatever the workload
	// adds (the TCP workload binds, dials and joins a cluster). Repeated from
	// scratch so setup_s is a median, each time on a collected heap — a fresh
	// process owes the collector nothing; the last task is the one measured.
	var t *task
	var setups, gens, compiles []float64
	for began := time.Now(); len(setups) == 0 || (!o.smoke && time.Since(began) < setupTime); {
		runtime.GC()
		start := time.Now()
		if t, err = buildTask(spec); err != nil {
			return nil, err
		}
		compiles = append(compiles, millis(compileKB(t.ds.KB, t.fold.TrainPos[0])))
		if w.prepare != nil {
			if err := w.prepare(t); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, millis(t.genTime))
	}
	r.info("task: %s, train %d+/%d-, test %d+/%d- (fold 0 of 5), %d BK clauses", t.ds.Name,
		len(t.fold.TrainPos), len(t.fold.TrainNeg), len(t.fold.TestPos), len(t.fold.TestNeg), t.ds.KB.Size())
	r.timing("setup_s", setups)

	// One warm repetition, checked but outside every timing: the process's
	// first learn call pays for a cold heap and lazy initialisation that no
	// later one does. What it cost is kept per layer, as bench.first_rep_ms.
	first, err := w.rep(t)
	if err != nil {
		return nil, fmt.Errorf("%s: warm repetition: %w", o.workload, err)
	}
	r.op(chk.check(first.out))
	r.set("bench.first_rep_ms", millis(first.wall))

	// Timed repetitions, tracing off. A traced run spends only a third of
	// its time here: enough for the baseline the overhead is taken against.
	budget := o.duration(1)
	if o.trace {
		budget = o.duration(1.0 / 3)
	}
	var walls, cpus []float64
	var last *repResult
	deadline := time.Now().Add(budget)
	for i := 0; o.moreReps(i, deadline); i++ {
		res, err := w.rep(t)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", o.workload, i, err)
		}
		r.op(chk.check(res.out))
		walls = append(walls, millis(res.wall))
		cpus = append(cpus, millis(res.cpu))
		last = res
	}
	if w.verify != nil {
		r.op(w.verify(t, last))
	}
	if o.updateGolden {
		if err := updateGolden(o.workload, o.size(), last.out); err != nil {
			return nil, err
		}
	}
	wall := median(walls)
	r.timing("op_wall_ms", walls)
	r.timing("op_cpu_ms", cpus)
	r.set("examples_per_s", float64(t.trainLen)/(wall/1e3))
	r.set("accuracy_pct", t.accuracyPct(last.theory))
	r.set("peak_rss_mb", peakRSSMB())
	if !o.trace {
		return r, nil
	}

	// The traced repetitions (the last one's spans are kept) and the probes.
	base := time.Duration(wall * float64(time.Millisecond))
	var tr *tracer
	var res *repResult
	var tracedWalls []float64
	for i := 0; i < o.times(tracedReps); i++ {
		tr = newTracer()
		var record func(*metricSet)
		if res, record, err = w.traced(t, tr); err != nil {
			return nil, fmt.Errorf("%s: traced repetition: %w", o.workload, err)
		}
		r.op(chk.check(res.out))
		tracedWalls = append(tracedWalls, millis(res.wall))
		if i == o.times(tracedReps)-1 {
			record(r.ms)
		}
	}
	r.set("bench.trace_overhead_pct", 100*(median(tracedWalls)/wall-1))
	r.note("bench.trace_overhead_pct", "traced n=%d vs untraced n=%d", len(tracedWalls), len(walls))
	if w.probes != nil {
		if err := w.probes(t, tr, r.ms, base, res); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
	}
	r.op(tr.checkLanes())
	r.set("bench.rep_spread_pct", 100*spreadShare(walls))
	r.set("core.cores_busy", median(cpus)/wall)
	r.set("solve.inferences", float64(res.out.Inferences))
	r.set("solve.ns_per_inference", median(cpus)*1e6/float64(res.out.Inferences))
	r.set("datasets.generate_ms", median(gens))
	r.set("datasets.pos", float64(len(t.ds.Pos)))
	r.set("datasets.neg", float64(len(t.ds.Neg)))
	r.set("datasets.kb_clauses", float64(t.ds.KB.Size()))
	r.set("solve.kb_compile_ms", median(compiles))
	probeProver(t, res.theory, o.seed, r.ms)
	if err := tr.writeChrome(o.tracePath()); err != nil {
		return nil, err
	}
	r.info("trace: %s", o.tracePath())
	return r, nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// shadow is what the replayed covering loop measured, layer by layer.
type shadow struct {
	res      repResult
	searches int
	rules    int
	adopted  int
	nodes    int

	bottomUs   []float64 // one per bottom.Construct
	bottomLits int
	bottomTime time.Duration
	learnMs    []float64 // one per search.LearnRule
	learnTime  time.Duration
	cov        *TimedCoverer
}

// shadowCovering replays covering.Learn's loop from its public parts —
// bottom.Construct → search.LearnRule over a timing Coverer →
// Best/Materialize/RetractPos — with a span around each layer call. It is
// the sequential learner with the layer boundaries visible, and it must
// learn the byte-identical theory (the caller checks). maxSearches > 0
// stops early, for a probe of the layers on another workload's data.
func shadowCovering(t *task, tr *tracer, op int, maxSearches int) (*shadow, error) {
	const lane = "learner"
	ds := t.ds
	sh := &shadow{}
	cpu0, start := cpuTime(), time.Now()
	root := tr.open(lane, "covering.Learn (replayed)", 0, op, start)

	ex := search.NewExamples(t.fold.TrainPos, t.fold.TrainNeg)
	m := solve.NewMachine(ds.KB, ds.Budget)
	m.SetNoVM(ds.Search.NoVM)
	sh.cov = NewTimedCoverer(search.NewFullCoverer(m, ex, ds.Budget, 0), tr, lane, op)
	defer sh.cov.Close()

	var theory []logic.Clause
	for ex.NumPosAlive() > 0 && len(theory) < 1000 {
		if maxSearches > 0 && sh.searches >= maxSearches {
			break
		}
		seed := ex.FirstAlivePos()
		example := ex.Pos[seed]

		t0 := time.Now()
		bot, err := bottom.Construct(m, ds.Modes, example, ds.Bottom)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("replayed covering loop: %w", err)
		}
		tr.add(lane, "bottom.Construct", root, op, t0, t1)
		sh.bottomUs = append(sh.bottomUs, micros(t1.Sub(t0)))
		sh.bottomTime += t1.Sub(t0)
		sh.bottomLits += len(bot.Lits)

		// The LearnRule span is opened before the search so the coverage
		// spans recorded during it can name it as their parent.
		id := tr.open(lane, "search.LearnRule", root, op, t1)
		sh.cov.SetParent(id)
		sr := search.LearnRule(sh.cov, bot, nil, ds.Search)
		t2 := time.Now()
		tr.close(id, t2)
		sh.learnMs = append(sh.learnMs, millis(t2.Sub(t1)))
		sh.learnTime += t2.Sub(t1)
		sh.searches++
		sh.nodes += sr.Generated

		best := sr.Best()
		if best == nil || best.PosCover().Empty() {
			theory = append(theory, logic.Fact(example))
			sh.adopted++
			single := search.NewBitset(len(ex.Pos))
			single.Set(seed)
			ex.RetractPos(single)
			continue
		}
		theory = append(theory, best.Materialize(bot).Canonical())
		sh.rules++
		ex.RetractPos(best.PosCover())
	}

	end := time.Now()
	tr.close(root, end)
	inferences := m.TotalInferences() + sh.cov.OwnInferences()
	sh.res = repResult{
		out:    outcome{TheorySHA: theorySHA(theory), Inferences: inferences},
		theory: theory,
		wall:   end.Sub(start),
		cpu:    cpuTime() - cpu0,
	}
	return sh, nil
}

// record writes the replayed loop's layer metrics.
func (sh *shadow) record(ms *metricSet) {
	searchSelf := sh.learnTime - sh.cov.Busy
	ms.set("bottom.construct_us", median(sh.bottomUs))
	ms.set("bottom.literals", float64(sh.bottomLits))
	ms.set("bottom.self_s", sh.bottomTime.Seconds())
	ms.set("search.learnrule_ms", median(sh.learnMs))
	ms.set("search.nodes_generated", float64(sh.nodes))
	ms.set("search.self_s", searchSelf.Seconds())
	ms.set("search.coverage_batches", float64(sh.cov.Batches))
	ms.set("solve.coverage_self_s", sh.cov.Busy.Seconds())
	ms.set("covering.searches", float64(sh.searches))
	ms.set("covering.rules", float64(sh.rules))
	ms.set("covering.adopted_facts", float64(sh.adopted))
	if sh.nodes > 0 {
		ms.set("search.ns_per_node", float64(searchSelf)/float64(sh.nodes))
	}
	if sh.learnTime > 0 {
		ms.set("search.bookkeeping_share", float64(searchSelf)/float64(sh.learnTime))
	}
}

// probeRules are the rules the prover probes score: every non-fact rule of
// the learned theory and each of its proper body prefixes, so the sample
// spans cheap general rules and the specific rules a search ends on.
func probeRules(theory []logic.Clause) []*logic.Clause {
	var rules []*logic.Clause
	for _, c := range theory {
		for n := 1; n <= len(c.Body); n++ {
			r := logic.Clause{Head: c.Head, Body: c.Body[:n]}
			rules = append(rules, &r)
		}
	}
	return rules
}

// probeProver times the prover's entry points on a fixed rule × example
// sample drawn (by the run's seed) from the workload's own data.
func probeProver(t *task, theory []logic.Clause, seed int64, ms *metricSet) {
	ds := t.ds
	rules := probeRules(theory)
	pool := append(append([]logic.Term(nil), t.fold.TrainPos...), t.fold.TrainNeg...)
	rng := newXorshift(seed)
	var examples []logic.Term
	for _, i := range rng.perm(len(pool))[:min(64, len(pool))] {
		examples = append(examples, pool[i])
	}

	var parses []float64
	for _, e := range examples {
		s := e.String()
		start := time.Now()
		_, err := logic.ParseTerm(s)
		parses = append(parses, float64(time.Since(start)))
		if err != nil {
			panic("bench: example does not round-trip through ParseTerm: " + s) // generated atoms always parse
		}
	}
	ms.set("logic.parse_term_ns", median(parses))

	m := solve.NewMachine(ds.KB, ds.Budget)
	var covers, proves []float64
	for _, rule := range rules {
		for _, e := range examples {
			start := time.Now()
			ok := m.CoversExample(rule, e)
			covers = append(covers, float64(time.Since(start)))
			if ok {
				start = time.Now()
				m.ProveExample(rule, e)
				proves = append(proves, float64(time.Since(start)))
			}
		}
	}
	ms.set("solve.covers_ns", median(covers))
	ms.set("solve.prove_example_ns", median(proves))
	if len(covers) > 0 {
		ms.set("solve.cutoff_share", float64(m.CutoffQueries())/float64(len(covers)+len(proves)))
	}

	pl := solve.NewPool(ds.KB, ds.Budget, 2)
	var checkouts []float64
	for i := 0; i < 1000; i++ {
		start := time.Now()
		pm := pl.Get()
		pl.Put(pm)
		checkouts = append(checkouts, float64(time.Since(start)))
	}
	ms.set("solve.pool_checkout_ns", median(checkouts))

	// Serial Evaluator against ParallelEvaluator(2) on one fixed
	// CoverageFullBatch: the number a CoverParallelism default is judged by.
	if len(rules) == 0 {
		return
	}
	ex := search.NewExamples(t.fold.TrainPos, t.fold.TrainNeg)
	serial := search.NewEvaluator(solve.NewMachine(ds.KB, ds.Budget), ex)
	par := search.NewParallelEvaluator(ds.KB, ex, ds.Budget, 2)
	defer par.Close()
	var serialMs, parMs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		serial.CoverageFullBatch(rules)
		mid := time.Now()
		par.CoverageFullBatch(rules)
		serialMs = append(serialMs, float64(mid.Sub(start)))
		parMs = append(parMs, float64(time.Since(mid)))
	}
	ms.set("search.parcover_speedup_2", median(serialMs)/median(parMs))
	if batches, wakes := par.Stats(); batches > 0 {
		ms.set("search.pool_wakes_per_batch", float64(wakes)/float64(batches))
	}
}
