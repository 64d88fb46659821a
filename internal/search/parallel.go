package search

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/solve"
)

// parallelThreshold is the minimum number of coverage tests in one call that
// justifies waking the shard pool; below it the synchronization overhead
// dominates and the call runs on a single shard machine. The result is
// bit-for-bit identical either way. The threshold applies to a whole batch,
// so a frontier of many narrow-masked candidates still parallelizes even
// when each individual candidate falls below it.
const parallelThreshold = 64

// taskChunkFactor controls work granularity: a batch is split into roughly
// taskChunkFactor tasks per shard, so the atomic-cursor scheduler can
// rebalance when some chunks prove slower than others.
const taskChunkFactor = 8

// coverTask is one unit of pool work: test the examples under mask words
// [lo, hi) against the compiled rule q — compiled once when the rule is
// staged and shared read-only by every shard — writing hits into the same
// words of out. Tasks own disjoint word ranges of their output bitsets, so no
// locking is needed and the merged result is bit-for-bit identical to a
// serial evaluation. The SLD work of a task is fixed by (rule, mask range)
// alone — independent of which shard machine runs it — so total inference
// accounting stays deterministic under dynamic scheduling.
type coverTask struct {
	q      *solve.Query
	ex     []logic.Term
	mask   Bitset
	out    Bitset
	lo, hi int
}

// ParallelEvaluator is a FullCoverer that shards coverage testing across a
// persistent pool of goroutines. The pool is started once at construction:
// each shard owns a private solve.Machine over the shared KB (a populated KB
// is safe for concurrent readers) and blocks on a wake channel between
// batches. A batch — one rule, or a whole search frontier via CoverageBatch —
// is split into (rule × word-range) tasks claimed from an atomic cursor, so
// the cost per batch is one pool wake/join instead of a goroutine spawn and
// WaitGroup barrier per rule.
//
// Which machine runs which task varies run to run, but a task's SLD work
// does not, so OwnInferences (the sum over shard machines) — and the virtual
// clocks driven by it — are deterministic across runs and identical to a
// serial evaluation of the same calls.
type ParallelEvaluator struct {
	Ex *Examples
	// pool owns the shard machines (solve.Pool's fixed shard view: shard w
	// exclusively owns machines[w]); machines caches pool.Machines().
	pool     *solve.Pool
	machines []*solve.Machine

	fullPos Bitset // cached all-ones mask over positives
	fullNeg Bitset // cached all-ones mask over negatives

	// scratchMasks holds materialized per-rule positive test masks
	// (candidate ∩ alive); reused across batches.
	scratchMasks []Bitset

	staged []coverTask // whole-bitset tasks, one or two per rule
	tasks  []coverTask // word-range chunks the pool drains
	// queries holds the batch's compiled rules, queries[:nQueries] in use;
	// the buffers are reused across batches.
	queries  []*solve.Query
	nQueries int
	cursor   atomic.Int64

	statBatches int64         // batch evaluations issued
	statWakes   int64         // batches large enough to wake the pool
	wake        chan struct{} // one token per pool worker per batch; closed by Close
	done        chan struct{}
	closed      bool
}

var _ FullCoverer = (*ParallelEvaluator)(nil)
var _ BatchCoverer = (*ParallelEvaluator)(nil)

// CoverWorkers resolves a coverage-parallelism knob to a shard count:
// negative selects GOMAXPROCS, anything else passes through.
func CoverWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// NewFullCoverer selects the coverage evaluator for a learner: a serial
// Evaluator on the caller's machine m when parallelism resolves to ≤1, or a
// ParallelEvaluator with that many shards over m's KB. This is the single
// home of the serial-vs-parallel selection rule shared by the sequential
// learner and the p²-mdie workers. Callers own the result and must Close it
// when done (a no-op for the serial evaluator).
func NewFullCoverer(m *solve.Machine, ex *Examples, budget solve.Budget, parallelism int) FullCoverer {
	if w := CoverWorkers(parallelism); w > 1 {
		pe := NewParallelEvaluator(m.KB(), ex, budget, w)
		// The shards inherit the seed machine's engine choice so an
		// interpreter-pinned run stays interpreter-pinned end to end.
		pe.SetNoVM(m.NoVM())
		return pe
	}
	return NewEvaluator(m, ex)
}

// NewParallelEvaluator builds an evaluator with the given number of shard
// workers over a shared KB; workers ≤ 0 selects GOMAXPROCS. The pool threads
// are started immediately; Close stops them.
func NewParallelEvaluator(kb *solve.KB, ex *Examples, budget solve.Budget, workers int) *ParallelEvaluator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	pool := solve.NewPool(kb, budget, workers)
	pe := &ParallelEvaluator{Ex: ex, pool: pool, machines: pool.Machines()}
	if workers > 1 {
		// The caller's goroutine drains the cursor with machines[0]; pool
		// goroutines own machines[1..workers-1].
		pe.wake = make(chan struct{})
		pe.done = make(chan struct{})
		for w := 1; w < workers; w++ {
			go pe.poolWorker(w)
		}
	}
	return pe
}

// poolWorker is one persistent shard goroutine: it sleeps on the wake
// channel, drains the task cursor with its private machine, reports on the
// done channel, and exits when Close closes the wake channel.
func (pe *ParallelEvaluator) poolWorker(w int) {
	m := pe.machines[w]
	for range pe.wake {
		pe.drain(m)
		pe.done <- struct{}{}
	}
}

// drain claims and runs tasks until the cursor passes the end of the batch.
func (pe *ParallelEvaluator) drain(m *solve.Machine) {
	n := int64(len(pe.tasks))
	for {
		i := pe.cursor.Add(1) - 1
		if i >= n {
			return
		}
		runCoverTask(m, &pe.tasks[i])
	}
}

// Close stops the persistent pool. The evaluator must not be used afterwards.
func (pe *ParallelEvaluator) Close() {
	if pe.closed {
		return
	}
	pe.closed = true
	if pe.wake != nil {
		close(pe.wake)
	}
}

// SetNoVM pins every shard machine to the interpreter (true) or the compiled
// VM (false). Call only between batches.
func (pe *ParallelEvaluator) SetNoVM(no bool) { pe.pool.SetNoVM(no) }

// Workers reports the shard count.
func (pe *ParallelEvaluator) Workers() int { return len(pe.machines) }

// Stats reports how many batch evaluations were issued and how many of them
// woke the pool (the rest ran on one shard below parallelThreshold). One
// batched search node — however many candidates it expands — costs at most
// one wake.
func (pe *ParallelEvaluator) Stats() (batches, wakes int64) {
	return pe.statBatches, pe.statWakes
}

// PosLen returns the positive example count.
func (pe *ParallelEvaluator) PosLen() int { return len(pe.Ex.Pos) }

// NegLen returns the negative example count.
func (pe *ParallelEvaluator) NegLen() int { return len(pe.Ex.Neg) }

// OwnInferences sums the SLD work across all shard machines.
func (pe *ParallelEvaluator) OwnInferences() int64 { return pe.pool.TotalInferences() }

// CutoffQueries sums budget-truncated queries across all shard machines.
func (pe *ParallelEvaluator) CutoffQueries() int64 { return pe.pool.CutoffQueries() }

// Coverage returns bitsets of the alive positives and of the negatives that
// rule covers, exactly as the serial Evaluator does. Non-nil candidate masks
// restrict which examples are tested. Single rules are staged directly —
// no batch slices — so the per-candidate path allocates only its result
// bitsets.
func (pe *ParallelEvaluator) Coverage(rule *logic.Clause, posCand, negCand Bitset) (pos, neg Bitset) {
	testPos := pe.Ex.PosAlive
	if posCand != nil {
		buf := IntersectInto(pe.scratchMask(0), posCand, pe.Ex.PosAlive)
		pe.scratchMasks[0] = buf
		testPos = buf
	}
	testNeg := negCand
	if testNeg == nil {
		testNeg = pe.allNeg()
	}
	pos = NewBitset(len(pe.Ex.Pos))
	neg = NewBitset(len(pe.Ex.Neg))
	pe.resetStage()
	pe.stageRule(rule, testPos, testNeg, pos, neg)
	pe.runStagedTasks(testPos.Count() + testNeg.Count())
	return pos, neg
}

// CoverageBatch evaluates a whole frontier of rules in one pool
// synchronisation: per-rule test masks are materialized, the batch is cut
// into (rule × word-range) tasks, the pool is woken once, and the caller's
// goroutine drains the cursor alongside the shard goroutines.
func (pe *ParallelEvaluator) CoverageBatch(rules []*logic.Clause, posCands, negCands []Bitset) []CoverResult {
	out := make([]CoverResult, len(rules))
	if len(rules) == 0 {
		return out
	}
	pe.resetStage()
	tests := 0
	aliveCount := -1
	var lastCand, lastMask Bitset
	lastCount := 0
	var lastNegCand Bitset
	lastNegCount := 0
	for i, rule := range rules {
		var posCand, negCand Bitset
		if posCands != nil {
			posCand = posCands[i]
		}
		if negCands != nil {
			negCand = negCands[i]
		}
		testPos := pe.Ex.PosAlive
		nPos := 0
		if posCand != nil {
			// Frontier batches typically share one parent mask across every
			// rule; materialize (and count) candidate ∩ alive once per
			// distinct mask.
			if sameBitset(posCand, lastCand) {
				testPos = lastMask
				nPos = lastCount
			} else {
				buf := IntersectInto(pe.scratchMask(i), posCand, pe.Ex.PosAlive)
				pe.scratchMasks[i] = buf
				testPos = buf
				lastCand, lastMask = posCand, buf
				lastCount = buf.Count()
				nPos = lastCount
			}
		} else {
			if aliveCount < 0 {
				aliveCount = pe.Ex.PosAlive.Count()
			}
			nPos = aliveCount
		}
		testNeg := negCand
		nNeg := 0
		switch {
		case testNeg == nil:
			testNeg = pe.allNeg()
			nNeg = len(pe.Ex.Neg)
		case sameBitset(testNeg, lastNegCand):
			// Shared parent negCov across a frontier: count it once.
			nNeg = lastNegCount
		default:
			nNeg = testNeg.Count()
			lastNegCand, lastNegCount = testNeg, nNeg
		}
		out[i].Pos = NewBitset(len(pe.Ex.Pos))
		out[i].Neg = NewBitset(len(pe.Ex.Neg))
		tests += nPos + nNeg
		pe.stageRule(rule, testPos, testNeg, out[i].Pos, out[i].Neg)
	}
	pe.runStagedTasks(tests)
	return out
}

// CoverageFull evaluates rule over every positive — retracted or not — and
// every negative (see Evaluator.CoverageFull), staged directly like
// Coverage.
func (pe *ParallelEvaluator) CoverageFull(rule *logic.Clause) (pos, neg Bitset) {
	if len(pe.fullPos) == 0 && len(pe.Ex.Pos) > 0 {
		pe.fullPos = FullBitset(len(pe.Ex.Pos))
	}
	pos = NewBitset(len(pe.Ex.Pos))
	neg = NewBitset(len(pe.Ex.Neg))
	pe.resetStage()
	pe.stageRule(rule, pe.fullPos, pe.allNeg(), pos, neg)
	pe.runStagedTasks(len(pe.Ex.Pos) + len(pe.Ex.Neg))
	return pos, neg
}

// CoverageFullBatch evaluates a rules bag over every positive and negative
// in one pool synchronisation.
func (pe *ParallelEvaluator) CoverageFullBatch(rules []*logic.Clause) []CoverResult {
	out := make([]CoverResult, len(rules))
	if len(rules) == 0 {
		return out
	}
	if len(pe.fullPos) == 0 && len(pe.Ex.Pos) > 0 {
		pe.fullPos = FullBitset(len(pe.Ex.Pos))
	}
	pe.resetStage()
	tests := 0
	for i, rule := range rules {
		out[i].Pos = NewBitset(len(pe.Ex.Pos))
		out[i].Neg = NewBitset(len(pe.Ex.Neg))
		tests += len(pe.Ex.Pos) + len(pe.Ex.Neg)
		pe.stageRule(rule, pe.fullPos, pe.allNeg(), out[i].Pos, out[i].Neg)
	}
	pe.runStagedTasks(tests)
	return out
}

func (pe *ParallelEvaluator) allNeg() Bitset {
	if len(pe.fullNeg) == 0 && len(pe.Ex.Neg) > 0 {
		pe.fullNeg = FullBitset(len(pe.Ex.Neg))
	}
	return pe.fullNeg
}

// scratchMask returns the i-th reusable mask buffer, growing the pool of
// buffers as needed.
func (pe *ParallelEvaluator) scratchMask(i int) Bitset {
	for len(pe.scratchMasks) <= i {
		pe.scratchMasks = append(pe.scratchMasks, nil)
	}
	return pe.scratchMasks[i]
}

// sameBitset reports whether two bitsets share the same backing array (the
// cheap identity check batching exploits to materialize a shared parent mask
// only once).
func sameBitset(a, b Bitset) bool {
	return len(a) > 0 && len(b) == len(a) && &a[0] == &b[0]
}

// stageRule appends the tasks for one rule's positive and negative sides.
// Word ranges are chunked later, at runStagedTasks time, when the batch's
// total size is known.
func (pe *ParallelEvaluator) stageRule(rule *logic.Clause, testPos, testNeg, pos, neg Bitset) {
	if len(testPos) == 0 && len(testNeg) == 0 {
		return
	}
	if pe.nQueries == len(pe.queries) {
		pe.queries = append(pe.queries, new(solve.Query))
	}
	q := pe.queries[pe.nQueries]
	pe.nQueries++
	// Every shard machine shares machines[0]'s KB and engine choice, so one
	// compilation serves them all.
	pe.machines[0].CompileQuery(q, rule)
	if len(testPos) > 0 {
		pe.staged = append(pe.staged, coverTask{q: q, ex: pe.Ex.Pos, mask: testPos, out: pos, lo: 0, hi: len(testPos)})
	}
	if len(testNeg) > 0 {
		pe.staged = append(pe.staged, coverTask{q: q, ex: pe.Ex.Neg, mask: testNeg, out: neg, lo: 0, hi: len(testNeg)})
	}
}

// resetStage starts a new batch.
func (pe *ParallelEvaluator) resetStage() {
	pe.staged = pe.staged[:0]
	pe.nQueries = 0
}

// runStagedTasks executes the staged batch: serially on machines[0] when the
// batch is too small (or the evaluator has a single shard), otherwise split
// into word-range chunks and drained by the pool plus the caller — one wake
// and one join for the whole batch.
func (pe *ParallelEvaluator) runStagedTasks(tests int) {
	pe.statBatches++
	n := len(pe.machines)
	if n == 1 || tests < parallelThreshold {
		for i := range pe.staged {
			runCoverTask(pe.machines[0], &pe.staged[i])
		}
		return
	}
	pe.statWakes++
	pe.chunkTasks()
	pe.cursor.Store(0)
	for w := 1; w < n; w++ {
		pe.wake <- struct{}{}
	}
	pe.drain(pe.machines[0])
	for w := 1; w < n; w++ {
		<-pe.done
	}
}

// chunkTasks splits staged whole-bitset tasks into word ranges of roughly
// taskChunkFactor chunks per shard, dropping ranges whose mask words are all
// zero. Chunking depends only on the batch shape and the shard count, never
// on scheduling, so the task list — and each task's SLD work — is
// deterministic.
func (pe *ParallelEvaluator) chunkTasks() {
	totalWords := 0
	for i := range pe.staged {
		totalWords += pe.staged[i].hi - pe.staged[i].lo
	}
	chunk := totalWords / (taskChunkFactor * len(pe.machines))
	if chunk < 1 {
		chunk = 1
	}
	pe.tasks = pe.tasks[:0]
	for i := range pe.staged {
		t := &pe.staged[i]
		for lo := t.lo; lo < t.hi; lo += chunk {
			hi := lo + chunk
			if hi > t.hi {
				hi = t.hi
			}
			if maskEmpty(t.mask, lo, hi) {
				continue
			}
			pe.tasks = append(pe.tasks, coverTask{q: t.q, ex: t.ex, mask: t.mask, out: t.out, lo: lo, hi: hi})
		}
	}
}

// maskEmpty reports whether mask words [lo, hi) are all zero.
func maskEmpty(mask Bitset, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if mask[i] != 0 {
			return false
		}
	}
	return true
}

// runCoverTask tests the examples under the task's mask words, writing hits
// into the same words of the task's output bitset. Tasks own disjoint word
// ranges, so writes never race.
func runCoverTask(m *solve.Machine, t *coverTask) {
	for wi := t.lo; wi < t.hi; wi++ {
		word := t.mask[wi]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if i := wi*64 + b; m.CoversQuery(t.q, t.ex[i]) {
				t.out[wi] |= 1 << b
			}
		}
	}
}
