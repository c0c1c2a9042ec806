package main

import (
	"math"
	"sort"
)

// beyond is how many samples must lie above a reported percentile: a
// tail estimated from fewer is mostly noise.
const beyond = 10

// percentile returns the p-th percentile (nearest rank) of sorted, or,
// when fewer than ten samples lie beyond that rank, the highest
// percentile that still has ten beyond it; used is the percentile
// actually returned. With ten samples or fewer it returns the minimum.
func percentile(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyond {
		rank = max(n-beyond, 1)
	}
	return sorted[rank-1], float64(rank) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max − min) ÷ median: the run-to-run spread of a metric as
// a share of its median, comparable with the metric's bound.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
