// Package sched owns partition policy for the elastic p²-mdie cluster: how
// many examples each worker should hold, and how a pooled example set is
// dealt into shares. The epoch-driven master feeds it per-worker measured
// throughput (inferences per virtual second of busy time, read off the
// cost-model clock) and asks for shares; every share-dealing path in the
// system — the initial partition (core and parcov), the k-fold split,
// per-epoch repartitioning, recovery redistribution, join rebalancing —
// routes through this package, so the even-split and the
// throughput-proportional policies are two parameterisations of one
// mechanism rather than parallel ad-hoc code paths. The random deals
// hand DealEven a permutation drawn from internal/rng.
//
// Determinism contract: all outputs are pure functions of the inputs, and
// DealEven reproduces the historical round-robin deal bit-for-bit — the
// default-off byte-identity guarantee of the scheduling refactor rests on
// that.
package sched

import "sort"

// Balancer accumulates per-worker throughput observations and converts
// them into share weights. Throughput is measured as inferences per
// nanosecond of busy virtual time: idle time (waiting on stragglers) is
// excluded, so the measure is the worker's demonstrated compute speed, not
// its recent luck with cheap examples — on a homogeneous cluster all
// weights converge to the same value and proportional shares degrade
// gracefully to an even split.
type Balancer struct {
	inf  map[int]int64 // cumulative inferences per worker id
	busy map[int]int64 // cumulative busy virtual nanoseconds
}

// NewBalancer returns an empty balancer.
func NewBalancer() *Balancer {
	return &Balancer{inf: make(map[int]int64), busy: make(map[int]int64)}
}

// Observe records worker id's cumulative totals (not deltas): total
// inferences performed and total busy virtual nanoseconds. Reports are
// idempotent and monotonic; a smaller total than previously seen is kept
// anyway (it means the worker was rebuilt, e.g. after a repartition).
func (b *Balancer) Observe(id int, inferences, busyNs int64) {
	b.inf[id] = inferences
	b.busy[id] = busyNs
}

// Forget drops a worker's history (call when it leaves the membership).
func (b *Balancer) Forget(id int) {
	delete(b.inf, id)
	delete(b.busy, id)
}

// Throughput returns worker id's measured inferences per busy nanosecond,
// and whether a usable observation exists.
func (b *Balancer) Throughput(id int) (float64, bool) {
	inf, busy := b.inf[id], b.busy[id]
	if busy <= 0 || inf <= 0 {
		return 0, false
	}
	return float64(inf) / float64(busy), true
}

// Weights returns one positive weight per id, proportional to measured
// throughput. Workers without history (fresh joiners) are assumed average:
// they get the mean of the known weights, or 1 when nobody has history —
// so a joiner's first share is a fair one rather than zero or everything.
func (b *Balancer) Weights(ids []int) []float64 {
	out := make([]float64, len(ids))
	var sum float64
	known := 0
	for i, id := range ids {
		if tp, ok := b.Throughput(id); ok {
			out[i] = tp
			sum += tp
			known++
		}
	}
	fill := 1.0
	if known > 0 {
		fill = sum / float64(known)
	}
	for i := range out {
		if out[i] == 0 {
			out[i] = fill
		}
	}
	return out
}

// DealEven splits xs into p round-robin shares (possibly empty) — exactly
// the historical dealShares order: xs[i] goes to share i mod p. The
// initial partitions, the k-fold split, recovery redistribution and
// per-epoch repartitioning use this; its output being bit-identical to the
// pre-sched code is what pins the default-off byte-identity guarantee.
func DealEven[T any](xs []T, p int) [][]T {
	shares := make([][]T, p)
	for i, x := range xs {
		shares[i%p] = append(shares[i%p], x)
	}
	return shares
}

// DealByCost distributes items with per-item costs over len(weights)
// shares so that each share's total cost is proportional to its weight —
// the longest-processing-time greedy: items in descending cost order (ties
// by original position, so the deal is deterministic), each assigned to
// the share with the lowest weighted load. This is what evens out
// partitions whose *examples* have skewed costs, which a count-based deal
// cannot see: two workers with equal counts can still hold wildly unequal
// work. costs must parallel xs; missing or non-positive costs count as 1.
func DealByCost[T any](xs []T, costs []int64, weights []float64) [][]T {
	p := len(weights)
	shares := make([][]T, p)
	if p == 0 || len(xs) == 0 {
		return shares
	}
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	cost := func(i int) int64 {
		if i < len(costs) && costs[i] > 0 {
			return costs[i]
		}
		return 1
	}
	sort.SliceStable(order, func(a, b int) bool { return cost(order[a]) > cost(order[b]) })
	loads := make([]float64, p)
	for _, i := range order {
		best := 0
		for k := 1; k < p; k++ {
			if loads[k] < loads[best] {
				best = k
			}
		}
		w := weights[best]
		if w <= 0 {
			w = 1
		}
		loads[best] += float64(cost(i)) / w
		shares[best] = append(shares[best], xs[i])
	}
	return shares
}
