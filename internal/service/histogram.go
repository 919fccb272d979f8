package service

import (
	"sort"
	"sync/atomic"
	"time"
)

// latencyBoundsSeconds are the fixed upper bounds of the per-endpoint
// latency histogram buckets (le semantics, Prometheus-style), spanning
// 500µs to 10s — the service's whole range from cached predict to cold
// profiling. A fixed layout keeps observation O(log buckets) with zero
// allocation and makes snapshots from different nodes directly
// addable.
var latencyBoundsSeconds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numLatencyBuckets is len(latencyBoundsSeconds)+1: the last bucket is
// the +Inf overflow.
const numLatencyBuckets = 15

// endpoint is one counted endpoint's telemetry: its request count and
// its latency histogram, both safe for concurrent update.
type endpoint struct {
	requests atomic.Int64
	latency  histogram
}

// histogram is a cheap fixed-bucket latency histogram, safe for
// concurrent observation.
type histogram struct {
	counts   [numLatencyBuckets]atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBoundsSeconds, sec)
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// HistogramJSON is one endpoint's latency distribution in /metrics.
// Percentiles are bucket-upper-bound estimates: the true quantile is
// at most the reported value (the overflow bucket reports the last
// finite bound). They exist so a load test's client-side percentiles
// can be cross-checked server-side without scraping raw buckets.
type HistogramJSON struct {
	Count           int64     `json:"count"`
	SumSeconds      float64   `json:"sum_seconds"`
	BucketLeSeconds []float64 `json:"bucket_le_seconds"`
	Counts          []int64   `json:"counts"`
	P50Seconds      float64   `json:"p50_seconds"`
	P95Seconds      float64   `json:"p95_seconds"`
	P99Seconds      float64   `json:"p99_seconds"`
}

// snapshot materializes the histogram for /metrics.
func (h *histogram) snapshot() HistogramJSON {
	out := HistogramJSON{
		BucketLeSeconds: latencyBoundsSeconds,
		Counts:          make([]int64, numLatencyBuckets),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
		out.Count += out.Counts[i]
	}
	out.SumSeconds = float64(h.sumNanos.Load()) / 1e9
	out.P50Seconds = quantileUpperBound(out.Counts, out.Count, 0.50)
	out.P95Seconds = quantileUpperBound(out.Counts, out.Count, 0.95)
	out.P99Seconds = quantileUpperBound(out.Counts, out.Count, 0.99)
	return out
}

// quantileUpperBound returns the upper bound of the bucket containing
// the q-quantile observation (0 when the histogram is empty). The
// overflow bucket reports the largest finite bound — an understatement
// flagged by its bucket count being non-zero.
func quantileUpperBound(counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(float64(q*float64(total)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(latencyBoundsSeconds) {
				return latencyBoundsSeconds[i]
			}
			return latencyBoundsSeconds[len(latencyBoundsSeconds)-1]
		}
	}
	return latencyBoundsSeconds[len(latencyBoundsSeconds)-1]
}
