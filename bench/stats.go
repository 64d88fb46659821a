package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile off an ascending slice by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// pyQuartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance check of this benchmark is computed with.
func pyQuartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := pyQuartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tail describes the highest percentile of a latency sample that still has
// at least ten samples beyond it.
type tail struct {
	Percentile float64 // 50, 90, 99, 99.9, ...
	Value      float64
}

// latencySummary is what every latency sample is reported as: the median,
// the 99th percentile, the highest percentile with ≥ 10 samples beyond it,
// and the sample count.
type latencySummary struct {
	N    int
	P50  float64
	P99  float64
	Tail tail
}

func summarize(xs []float64) latencySummary {
	s := sortedCopy(xs)
	out := latencySummary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = rank(s, 1, 2)
	out.P99 = rank(s, 99, 100)
	out.Tail = tail{Percentile: 50, Value: out.P50}
	for den := 10; den <= 100000; den *= 10 {
		if beyond := len(s) - rankIndex(len(s), den-1, den) - 1; beyond < 10 {
			break
		}
		out.Tail = tail{Percentile: 100 * float64(den-1) / float64(den), Value: rank(s, den-1, den)}
	}
	return out
}

// rankIndex is the nearest-rank index of the num/den quantile among n
// ascending samples: the smallest sample with at least that share of the
// samples at or below it. Integer arithmetic, so p99 of 1000 samples is
// sample 990 on every platform.
func rankIndex(n, num, den int) int {
	i := (n*num+den-1)/den - 1
	return min(max(i, 0), n-1)
}

func rank(sorted []float64, num, den int) float64 {
	return sorted[rankIndex(len(sorted), num, den)]
}
