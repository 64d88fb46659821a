// Package rng is the repository's one seeded generator: xorshift64*, fixed
// by its seed alone, so partitions, folds, generated datasets and fault
// schedules replay exactly from the seed a run was given. Not safe for
// concurrent use; each caller owns its generator.
package rng

// Rand is an xorshift64* generator.
type Rand struct{ s uint64 }

// New returns a generator seeded with seed. Seed 0, a fixed point of
// xorshift, is replaced by a constant.
func New(seed int64) *Rand {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &Rand{s: s}
}

// Uint64 returns the next output.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a number in [0, n); n must be positive.
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float64 returns a number in [0, 1) from the output's top 53 bits.
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / float64(1<<53) }

// Perm returns a permutation of 0..n-1: the identity shuffled by
// Fisher–Yates from the top.
func (r *Rand) Perm(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

// Shuffled returns a copy of xs in the order of r.Perm(len(xs)).
func Shuffled[T any](r *Rand, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range r.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}
