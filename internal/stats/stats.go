// Package stats provides the small statistical helpers the experiment
// harness needs: summary statistics and empirical CDFs over error
// distributions (Figure 5 of the paper).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of non-negative values (e.g., CPI errors).
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Max    float64
	P90    float64
	P95    float64
}

// Summarize computes a Summary (zero value for an empty sample).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:      len(s),
		Mean:   sum / float64(len(s)),
		Median: Quantile(s, 0.5),
		Max:    s[len(s)-1],
		P90:    Quantile(s, 0.90),
		P95:    Quantile(s, 0.95),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f median=%.4f p90=%.4f p95=%.4f max=%.4f",
		s.N, s.Mean, s.Median, s.P90, s.P95, s.Max)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples ≤ X
}

// CDF returns the empirical CDF of the sample, one point per sample.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, v := range s {
		out[i] = CDFPoint{X: v, P: float64(i+1) / float64(len(s))}
	}
	return out
}

// FractionBelow returns the fraction of samples strictly below x.
func FractionBelow(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v < x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// GeoMean returns the geometric mean of positive samples (0 if any
// sample is non-positive or the slice is empty).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range xs {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(xs)))
}
