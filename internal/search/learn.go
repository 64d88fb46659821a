// Package search implements the bottom-clause-constrained rule search of
// MDIE systems: candidate rules are subsets of the bottom clause's literals,
// explored top-down (general to specific) breadth-first, ordered by
// θ-subsumption and scored on example coverage.
//
// LearnRule implements both the sequential learn_rule of the paper's Fig. 2
// (no seeds) and the pipelined learn_rule' of Fig. 7 (search restarted from
// the rules found by the previous pipeline stage).
package search

import (
	"container/heap"
	"slices"
	"sort"
	"sync"

	"repro/internal/bottom"
	"repro/internal/logic"
)

// openList abstracts the search frontier: FIFO for breadth-first, a
// score-ordered priority queue for best-first.
type openList interface {
	push(*Candidate)
	pop() *Candidate
	empty() bool
}

// fifoOpen is the breadth-first frontier. Popping advances a head index
// instead of re-slicing (q = q[1:] would keep every popped candidate — and
// its coverage bitsets — reachable through the backing array for the whole
// search); popped slots are nilled out and the queue compacts once the dead
// prefix dominates, so long breadth-first searches release their tail.
type fifoOpen struct {
	q    []*Candidate
	head int
}

func (f *fifoOpen) push(c *Candidate) { f.q = append(f.q, c) }
func (f *fifoOpen) pop() *Candidate {
	c := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head >= 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		for i := n; i < len(f.q); i++ {
			f.q[i] = nil // the copy left stale duplicates in the tail
		}
		f.q = f.q[:n]
		f.head = 0
	}
	return c
}
func (f *fifoOpen) empty() bool { return f.head >= len(f.q) }

// heapOpen is the best-first frontier: highest score first, ties broken by
// insertion order for determinism.
type heapOpen struct {
	items []heapItem
	seq   int
}

type heapItem struct {
	c   *Candidate
	seq int
}

func (h *heapOpen) Len() int { return len(h.items) }
func (h *heapOpen) Less(i, j int) bool {
	if h.items[i].c.Score != h.items[j].c.Score {
		return h.items[i].c.Score > h.items[j].c.Score
	}
	return h.items[i].seq < h.items[j].seq
}
func (h *heapOpen) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *heapOpen) Push(x any)    { h.items = append(h.items, x.(heapItem)) }
func (h *heapOpen) Pop() any {
	last := h.items[len(h.items)-1]
	h.items[len(h.items)-1] = heapItem{} // a pooled heap pins no candidate
	h.items = h.items[:len(h.items)-1]
	return last
}

func (h *heapOpen) push(c *Candidate) {
	heap.Push(h, heapItem{c: c, seq: h.seq})
	h.seq++
}
func (h *heapOpen) pop() *Candidate { return heap.Pop(h).(heapItem).c }
func (h *heapOpen) empty() bool     { return len(h.items) == 0 }

// Candidate is one searched rule: a set of bottom-clause literal indices
// plus its local evaluation.
type Candidate struct {
	// Indices are the bottom-clause body literal positions, ascending.
	Indices []int32
	// Pos and Neg are local coverage counts (alive positives, negatives).
	Pos, Neg int
	// Score is the heuristic value under the search settings.
	Score float64

	posCov Bitset
	negCov Bitset
	kept   bool // in the search's Good list: never recycled
}

// PosCover returns the bitset of alive positives the candidate covers.
func (c *Candidate) PosCover() Bitset { return c.posCov }

// NegCover returns the bitset of negatives the candidate covers.
func (c *Candidate) NegCover() Bitset { return c.negCov }

// Materialize builds the rule clause against its bottom clause.
func (c *Candidate) Materialize(bot *bottom.Bottom) logic.Clause {
	return bot.Materialize(c.Indices)
}

// candKeyWords is the occupancy-bitmap capacity of a candKey; bottom clauses
// of up to candKeyWords*64 literals get exact, allocation-free keys.
const candKeyWords = 4

// candKey is an allocation-free dedup key for a candidate's literal set. For
// bottom clauses of at most 256 literals (MaxLiterals defaults to 128) it is
// the exact occupancy bitmap over literal positions; beyond that it falls
// back to a pair of FNV-1a hashes over the index list, tagged so bitmap and
// hash keys can never collide.
type candKey [candKeyWords]uint64

// makeCandKey builds the key for a sorted (ascending) index list over a
// bottom clause of nLits literals. Lists containing duplicates — impossible
// for the search's own children, but legal in caller-supplied seeds — take
// the hash path, which encodes the full sequence, so they keep keys
// distinct from their deduplicated forms exactly as the old string keys
// did.
func makeCandKey(ix []int32, nLits int) candKey {
	var k candKey
	if nLits <= candKeyWords*64 && !hasAdjacentDup(ix) {
		for _, v := range ix {
			k[v/64] |= 1 << (v % 64)
		}
		return k
	}
	const (
		fnvOffset uint64 = 14695981039346656037
		fnvPrime  uint64 = 1099511628211
	)
	h1, h2 := fnvOffset, fnvOffset^0x9E3779B97F4A7C15
	for _, v := range ix {
		u := uint64(uint32(v))
		for s := 0; s < 32; s += 8 {
			h1 = (h1 ^ (u >> s & 0xff)) * fnvPrime
			h2 = (h2 ^ (u >> s & 0xff)) * fnvPrime
		}
	}
	k[0], k[1], k[2], k[3] = h1, h2, uint64(len(ix)), ^uint64(0)
	return k
}

// hasAdjacentDup reports whether a sorted index list repeats a value.
func hasAdjacentDup(ix []int32) bool {
	for i := 1; i < len(ix); i++ {
		if ix[i] == ix[i-1] {
			return true
		}
	}
	return false
}

// Result is the outcome of one rule search.
type Result struct {
	// Good holds the best W acceptable rules (all acceptable rules when W
	// is unlimited), sorted best-first. Seeds are always retained, as in
	// Fig. 7 ("Good = S"), even if locally poor — the master's global
	// evaluation weeds them out.
	Good []*Candidate
	// Generated counts rules evaluated during this search.
	Generated int
	// ExhaustedNodes reports that the NodesLimit stopped the search.
	ExhaustedNodes bool
}

// Best returns the top candidate, or nil if none is acceptable.
func (r *Result) Best() *Candidate {
	if len(r.Good) == 0 {
		return nil
	}
	return r.Good[0]
}

// LearnRule searches the subset lattice of bot's literals for good rules.
// With seeds == nil the search starts from the empty-bodied rule (Fig. 2);
// otherwise the open set and initial Good are the seed rules (Fig. 7), each
// re-evaluated on the local examples. The best W good rules are returned.
//
// Node expansion is batched: all admissible children of a popped node are
// collected first (dedup, input-variable check) and evaluated in a single
// CoverageBatch call, so a batching Coverer pays one synchronisation per
// expanded node rather than one per candidate. Candidate ordering,
// Generated counts and NodesLimit semantics are identical to per-candidate
// evaluation (what CoverageBatchOf falls back to for a plain Coverer).
//
// The search's scratch — dedup set, frontier buffers, open list, spare
// candidates — is borrowed from a pool for the call (searchState), so a
// search in steady state allocates little beyond its coverage results.
func LearnRule(ev Coverer, bot *bottom.Bottom, seeds [][]int32, st Settings) *Result {
	st = st.WithDefaults()
	s := searchStates.Get().(*searchState)
	defer s.release()
	res := &Result{}
	open := s.openList(st.Strategy)
	var good []*Candidate
	nLits := len(bot.Lits)

	addInitial := func(ix []int32, forceGood bool) {
		if !validIndices(ix, nLits) {
			return
		}
		sorted := append([]int32(nil), ix...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		key := makeCandKey(sorted, nLits)
		if s.seen[key] {
			return
		}
		s.seen[key] = true
		cand := evaluate(ev, bot, sorted, nil, nil, st)
		res.Generated++
		open.push(cand)
		if forceGood || st.IsGood(cand.Pos, cand.Neg) {
			cand.kept = true
			good = append(good, cand)
		}
	}

	if len(seeds) == 0 {
		addInitial(nil, false)
	} else {
		for _, s := range seeds {
			// Seeds stay in Good unconditionally (paper Fig. 7 line 1).
			addInitial(s, true)
		}
	}

	words := (bot.NumVars + 63) / 64
	s.bound = slices.Grow(s.bound[:0], words)[:words] // fillBoundVars clears it
	for !open.empty() && res.Generated < st.NodesLimit {
		node := open.pop()
		s.expand(node, bot, st)
		// NodesLimit truncation before evaluation preserves the
		// per-candidate path's semantics exactly: a child past the limit
		// was never evaluated there either, and the search stops right
		// after the limit is reached.
		if remaining := st.NodesLimit - res.Generated; len(s.children) > remaining {
			s.recycle(s.children[remaining:]...)
			s.children = s.children[:remaining]
		}
		s.fe.evaluateFrontier(ev, bot, s.children, node, st)
		for _, cand := range s.children {
			res.Generated++
			if st.IsGood(cand.Pos, cand.Neg) {
				cand.kept = true
				good = append(good, cand)
			}
			if cand.Pos >= st.MinPos {
				open.push(cand)
			} else if !cand.kept {
				s.recycle(cand)
			}
		}
		if !node.kept {
			s.recycle(node) // its children hold their own indices and coverage
		}
	}
	if res.Generated >= st.NodesLimit {
		res.ExhaustedNodes = true
	}

	sortCandidates(good)
	if st.W > 0 && len(good) > st.W {
		good = good[:st.W]
	}
	res.Good = good
	return res
}

// Caps on what a searchState keeps for the next search, so one huge search
// does not pin its scratch in the pool: a dedup set grown past maxPooledSeen
// keys is dropped, and at most maxPooledSpares spare candidates are kept.
const (
	maxPooledSeen   = 1 << 14
	maxPooledSpares = 1 << 12
)

// searchState is the scratch one LearnRule call borrows from searchStates:
// the dedup set, the variable bitset and child list of node expansion, the
// frontier buffers, both open lists and the spare candidates. Nothing in it
// outlives the call — every candidate a Result holds is kept, and a kept
// candidate is never recycled.
type searchState struct {
	seen     map[candKey]bool
	bound    Bitset       // variables bound by the node being expanded
	children []*Candidate // the admissible, unseen children of that node
	child    []int32      // a child's indices before they are known unseen
	spares   []*Candidate // candidates no longer referenced, to be reused
	fe       frontierBufs
	fifo     fifoOpen
	heap     heapOpen
}

var searchStates = sync.Pool{New: func() any { return &searchState{seen: make(map[candKey]bool)} }}

// openList returns the state's empty open list for strategy.
func (s *searchState) openList(strategy Strategy) openList {
	if strategy == StrategyBestFirst {
		return &s.heap
	}
	return &s.fifo
}

// release empties the state and returns it to the pool.
func (s *searchState) release() {
	if len(s.seen) > maxPooledSeen {
		s.seen = make(map[candKey]bool)
	} else {
		clear(s.seen)
	}
	for !s.fifo.empty() {
		if c := s.fifo.pop(); !c.kept {
			s.recycle(c)
		}
	}
	for _, it := range s.heap.items {
		if !it.c.kept {
			s.recycle(it.c)
		}
	}
	clear(s.heap.items)
	s.heap.items, s.heap.seq = s.heap.items[:0], 0
	s.fifo.q, s.fifo.head = s.fifo.q[:0], 0
	clear(s.children)
	s.children = s.children[:0]
	s.fe.release()
	searchStates.Put(s)
}

// recycle hands candidates nothing refers to any more back as spares; their
// index slices are reused, their coverage is dropped.
func (s *searchState) recycle(cs ...*Candidate) {
	for _, c := range cs {
		if len(s.spares) == maxPooledSpares {
			return
		}
		*c = Candidate{Indices: c.Indices[:0]}
		s.spares = append(s.spares, c)
	}
}

// newChild returns a candidate holding a copy of ix, reusing a spare.
func (s *searchState) newChild(ix []int32) *Candidate {
	var c *Candidate
	if n := len(s.spares); n > 0 {
		c, s.spares = s.spares[n-1], s.spares[:n-1]
	} else {
		c = new(Candidate)
	}
	c.Indices = append(c.Indices[:0], ix...)
	return c
}

// expand collects node's admissible children that no earlier node produced
// into s.children. Each child's indices are built in s.child first, so a
// candidate is taken only for a child whose key is new.
func (s *searchState) expand(node *Candidate, bot *bottom.Bottom, st Settings) {
	s.children = s.children[:0]
	if len(node.Indices) >= st.MaxClauseLen {
		return
	}
	if node.Pos < st.MinPos {
		return // specialisation cannot regain positives
	}
	if node.Neg == 0 && len(node.Indices) > 0 {
		return // consistent already; refining only loses coverage
	}
	nLits := len(bot.Lits)
	fillBoundVars(s.bound, bot, node.Indices)
	for j := int32(0); int(j) < nLits; j++ {
		if containsIndex(node.Indices, j) {
			continue
		}
		if !inputsBound(bot.Info[j].InVars, s.bound) {
			continue
		}
		s.child = insertSorted(s.child[:0], node.Indices, j)
		key := makeCandKey(s.child, nLits)
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		s.children = append(s.children, s.newChild(s.child))
	}
}

// frontierBufs holds the per-search scratch slices of batched frontier
// evaluation, reused across node expansions so the batch path adds no
// steady-state allocations. Every child's body is a capped sub-slice of one
// literal arena, which the next expansion overwrites: coverers borrow the
// rules of a batch for the call only (Coverer).
type frontierBufs struct {
	lits     []logic.Literal
	clauses  []logic.Clause
	rules    []*logic.Clause
	posCands []Bitset
	negCands []Bitset
}

// evaluateFrontier scores all children of one expanded node in a single
// CoverageBatch call (every child re-tests only the examples the shared
// parent covered), filling in each child's coverage and score.
func (fe *frontierBufs) evaluateFrontier(ev Coverer, bot *bottom.Bottom, children []*Candidate, parent *Candidate, st Settings) {
	if len(children) == 0 {
		return
	}
	n := len(children)
	fe.lits = slices.Grow(fe.lits[:0], n*len(children[0].Indices))
	fe.clauses = slices.Grow(fe.clauses[:0], n)[:n]
	fe.rules = slices.Grow(fe.rules[:0], n)[:n]
	fe.posCands = slices.Grow(fe.posCands[:0], n)[:n]
	fe.negCands = slices.Grow(fe.negCands[:0], n)[:n]
	for i, c := range children {
		at := len(fe.lits)
		for _, j := range c.Indices {
			fe.lits = append(fe.lits, bot.Lits[j])
		}
		fe.clauses[i] = logic.Clause{Head: bot.Head, Body: fe.lits[at:len(fe.lits):len(fe.lits)]}
		fe.rules[i] = &fe.clauses[i]
		fe.posCands[i] = parent.posCov
		fe.negCands[i] = parent.negCov
	}
	for i, r := range CoverageBatchOf(ev, fe.rules, fe.posCands, fe.negCands) {
		c := children[i]
		c.posCov, c.negCov = r.Pos, r.Neg
		c.Pos = r.Pos.Count()
		c.Neg = r.Neg.Count()
		c.Score = st.Score(c.Pos, c.Neg, len(c.Indices))
	}
}

// release drops what the buffers point into — the bottom clause's terms,
// the parent's coverage — so a pooled state pins neither.
func (fe *frontierBufs) release() {
	clear(fe.lits[:cap(fe.lits)])
	clear(fe.clauses[:cap(fe.clauses)])
	clear(fe.rules[:cap(fe.rules)])
	clear(fe.posCands[:cap(fe.posCands)])
	clear(fe.negCands[:cap(fe.negCands)])
}

// evaluate scores one candidate; parent coverage masks (may be nil) restrict
// the examples re-tested.
func evaluate(ev Coverer, bot *bottom.Bottom, ix []int32, posCand, negCand Bitset, st Settings) *Candidate {
	clause := bot.Materialize(ix)
	pos, neg := ev.Coverage(&clause, posCand, negCand)
	c := &Candidate{Indices: ix, posCov: pos, negCov: neg}
	c.Pos = pos.Count()
	c.Neg = neg.Count()
	c.Score = st.Score(c.Pos, c.Neg, len(ix))
	return c
}

// sortCandidates orders best-first with deterministic tie-breaks:
// score desc, positives desc, shorter first, then index-key order.
func sortCandidates(cs []*Candidate) {
	sort.SliceStable(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Pos != b.Pos {
			return a.Pos > b.Pos
		}
		if len(a.Indices) != len(b.Indices) {
			return len(a.Indices) < len(b.Indices)
		}
		return lessIndices(a.Indices, b.Indices)
	})
}

// lessIndices orders index lists by their comma-joined decimal rendering —
// the ordering the old string-key tie-break produced — without building the
// strings. The rendering order is pinned (rather than numeric order)
// because final-tie order decides which W rules a pipeline stage forwards,
// and changing it would change downstream searches.
func lessIndices(a, b []int32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := cmpDecimal(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// cmpDecimal three-way-compares the decimal renderings of two non-negative
// integers (so 10 sorts before 2, as strings do), using stack buffers.
func cmpDecimal(x, y int32) int {
	if x == y {
		return 0
	}
	var bx, by [12]byte
	dx := renderDecimal(&bx, x)
	dy := renderDecimal(&by, y)
	n := len(dx)
	if len(dy) < n {
		n = len(dy)
	}
	for i := 0; i < n; i++ {
		if dx[i] != dy[i] {
			if dx[i] < dy[i] {
				return -1
			}
			return 1
		}
	}
	// One rendering is a prefix of the other. In the joined key the shorter
	// element is followed by ',' or end-of-string, both below any digit.
	if len(dx) < len(dy) {
		return -1
	}
	return 1
}

// renderDecimal writes v's decimal digits into buf and returns the slice.
func renderDecimal(buf *[12]byte, v int32) []byte {
	i := len(buf)
	u := uint32(v)
	for {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	return buf[i:]
}

func validIndices(ix []int32, n int) bool {
	for _, v := range ix {
		if v < 0 || int(v) >= n {
			return false
		}
	}
	return true
}

func containsIndex(ix []int32, j int32) bool {
	for _, v := range ix {
		if v == j {
			return true
		}
	}
	return false
}

// insertSorted appends the ascending list ix with j inserted in order to
// dst, which must not overlap ix.
func insertSorted(dst, ix []int32, j int32) []int32 {
	i, _ := slices.BinarySearch(ix, j)
	dst = append(dst, ix[:i]...)
	dst = append(dst, j)
	return append(dst, ix[i:]...)
}

// fillBoundVars resets bound and marks the variables bound by the head plus
// the chosen literals.
func fillBoundVars(bound Bitset, bot *bottom.Bottom, ix []int32) {
	for i := range bound {
		bound[i] = 0
	}
	for _, v := range bot.HeadVars {
		bound.Set(int(v))
	}
	for _, i := range ix {
		for _, v := range bot.Info[i].InVars {
			bound.Set(int(v))
		}
		for _, v := range bot.Info[i].OutVars {
			bound.Set(int(v))
		}
	}
}

func inputsBound(in []int32, bound Bitset) bool {
	for _, v := range in {
		if !bound.Get(int(v)) {
			return false
		}
	}
	return true
}
