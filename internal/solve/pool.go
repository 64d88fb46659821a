package solve

import "runtime"

// Pool is a fixed-size set of Machines over one shared knowledge base — the
// "one machine per goroutine" concurrency idiom packaged once instead of
// being re-built ad hoc at every call site. A populated KB is safe for
// concurrent readers, so the pool hands out whole machines: each holds all
// mutable prover state (bindings, trail, goal stack, counters) and two
// goroutines must never share one concurrently.
//
// Two access styles are supported, for the two kinds of users:
//
//   - Get/Put checkout, for request-shaped workloads (the serving layer):
//     Get blocks until a machine is free, which doubles as admission
//     control — at most Size requests run proofs at once.
//   - Machines, the fixed shard view, for index-addressed workloads
//     (search.ParallelEvaluator): shard w permanently owns Machines()[w].
//
// The two styles must not be mixed on one pool.
type Pool struct {
	kb       *KB
	budget   Budget
	machines []*Machine
	free     chan *Machine
}

// NewPool builds n machines over kb with the given budget; n ≤ 0 selects
// GOMAXPROCS.
func NewPool(kb *KB, budget Budget, n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	p := &Pool{kb: kb, budget: budget, machines: make([]*Machine, n), free: make(chan *Machine, n)}
	for i := range p.machines {
		p.machines[i] = NewMachine(kb, budget)
		p.free <- p.machines[i]
	}
	return p
}

// Size reports the number of machines.
func (p *Pool) Size() int { return len(p.machines) }

// KB returns the shared knowledge base the machines prove against.
func (p *Pool) KB() *KB { return p.kb }

// Get checks a machine out, blocking until one is free.
func (p *Pool) Get() *Machine { return <-p.free }

// Put returns a machine obtained from Get. The machine is reset to the
// pool's KB (checkout-time SetKB swaps do not leak to the next user);
// per-query prover state needs no reset — every query begins from a clean
// slate — and the cumulative inference counters intentionally survive so the
// pool can account total work.
func (p *Pool) Put(m *Machine) {
	m.SetKB(p.kb)
	p.free <- m
}

// Machines returns the fixed shard view: caller w owns index w exclusively.
// Do not mix with Get/Put.
func (p *Pool) Machines() []*Machine { return p.machines }

// TotalInferences sums the SLD work across all machines. Only quiescent
// calls (no machine checked out or sharded work in flight) are exact.
func (p *Pool) TotalInferences() int64 {
	var n int64
	for _, m := range p.machines {
		n += m.TotalInferences()
	}
	return n
}

// CutoffQueries sums budget-truncated queries across all machines.
func (p *Pool) CutoffQueries() int64 {
	var n int64
	for _, m := range p.machines {
		n += m.CutoffQueries()
	}
	return n
}

// ResetCounters zeroes every machine's accumulated inference statistics.
func (p *Pool) ResetCounters() {
	for _, m := range p.machines {
		m.ResetCounters()
	}
}
