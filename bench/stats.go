package main

import (
	"math"
	"sort"
	"time"
)

// ms is d in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is Python's statistics.median: the middle value, or the mean
// of the two middle values for an even count. It is 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
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

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so -compare reports the spread exactly as the
// run-to-run acceptance check computes it. Fewer than two values give
// that value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m, m
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// nearestRank returns the q-quantile of an ascending slice by the
// nearest-rank method: the smallest sample with at least a share q of
// the samples at or below it.
func nearestRank(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rankOf(len(asc), q)-1]
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
// The small epsilon keeps q·n that is integral in exact arithmetic
// (0.99·1000) from rounding up to the next rank.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailQuantiles are the percentiles a tail is reported at, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tail returns the highest of tailQuantiles that has at least ten
// samples beyond it in asc, and its value. ok is false when even the
// median has fewer than ten samples beyond it.
func tail(asc []float64) (q, v float64, ok bool) {
	for _, q := range tailQuantiles {
		r := rankOf(len(asc), q)
		if len(asc)-r >= 10 {
			return q, asc[r-1], true
		}
	}
	return 0, 0, false
}
