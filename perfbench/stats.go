package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of sorted (0 when
// empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// beyond counts the samples of sorted strictly greater than its
// q-quantile: a percentile is reported with at least ten beyond it.
func beyond(sorted []int64, q float64) int {
	v := quantile(sorted, q)
	i, _ := slices.BinarySearch(sorted, v+1)
	return len(sorted) - i
}

// median of xs (0 when empty), without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// exclusive method, as Python's statistics.quantiles(xs, n=4) does.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		m := float64(j*(n+1)) / 4
		k := int(m)
		if k < 1 {
			return s[0]
		}
		if k >= n {
			return s[n-1]
		}
		return s[k-1] + (m-float64(k))*(s[k]-s[k-1])
	}
	return at(1), at(3)
}

func mean(sum, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}
