// Package stat holds the order statistics the benchmark reports: nearest-rank
// percentiles for latency samples, and the median and quartiles of repeated
// runs, computed the way Python's statistics.quantiles(values, n=4) computes
// them so the numbers here and the driver's agree.
package stat

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample: the smallest value with at least p percent of the sample
// at or below it. It returns 0 for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median returns the median of xs (mean of the two middle values for an even
// count), or 0 for an empty sample.
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartile of xs by the exclusive
// method (position i*(n+1)/4, linear interpolation, clamped to the sample).
// A sample of fewer than two values has both quartiles at its only value.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread returns the interquartile range of xs as a share of its median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
