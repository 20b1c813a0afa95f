package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted sample: the smallest value with at least p% of the sample at or
// below it. Nearest-rank never interpolates, so every reported latency is
// one that a job actually had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n sorted
// samples. The small slack keeps 99.9% of 10000 at rank 9990 although the
// product is not exact in floating point.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// median is the middle of a sample (mean of the two middle values for an
// even count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the figure is one slow job rather than a tail.
const tailBeyond = 10

// tailPercentile picks the highest of the ladder's percentiles that still
// has at least tailBeyond samples above it, and returns it with its value.
// With too few samples for any rung it falls back to the median.
func tailPercentile(sorted []float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range []float64{99.99, 99.9, 99.5, 99, 98, 95, 90, 75} {
		if rank := rankOf(p, max(n, 1)); n-rank >= tailBeyond {
			return p, sorted[rank-1]
		}
	}
	return 50, percentile(sorted, 50)
}

// quartileSpread is the distance between the first and third quartile of
// the sample as a share of its median — the repeatability figure -compare
// and the driver both use (exclusive method, like Python's
// statistics.quantiles(values, n=4)). It is 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
