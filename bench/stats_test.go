package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ q, want float64 }{
		{0.001, 1}, {0.5, 50}, {0.505, 51}, {0.99, 99}, {1, 100},
	} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank(seq(1000), 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (no rounding past an integral rank)", got)
	}
}

// TestTail: a tail is the highest listed percentile with at least ten
// samples beyond it.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n       int
		q, v    float64
		ok      bool
		comment string
	}{
		{10000, 0.999, 9990, true, "ten samples beyond p99.9"},
		{1000, 0.99, 990, true, "exactly ten beyond p99"},
		{999, 0.95, 950, true, "nine beyond p99, so p95"},
		{100, 0.9, 90, true, "ten beyond p90"},
		{20, 0.5, 10, true, "ten beyond the median"},
		{19, 0, 0, false, "nine beyond the median"},
	} {
		q, v, ok := tail(seq(c.n))
		if q != c.q || v != c.v || ok != c.ok {
			t.Errorf("tail of %d samples = (%v, %v, %v), want (%v, %v, %v): %s", c.n, q, v, ok, c.q, c.v, c.ok, c.comment)
		}
	}
}

// TestQuartiles pins Python's statistics.quantiles(xs, n=4), the
// spread the acceptance check computes.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{7, 1, 4, 2}, [3]float64{1.25, 3, 6.25}},
		{[]float64{3, 9}, [3]float64{1.5, 6, 10.5}}, // Python extrapolates beyond two points
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}
