package service

import (
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/ingest"
)

// Metrics is the expvar-style counter snapshot served at /metrics.
type Metrics struct {
	Requests map[string]int64  `json:"requests"`
	Errors   int64             `json:"errors"`
	InFlight int64             `json:"in_flight"`
	Pool     harness.PoolStats `json:"workload_cache"`
	Workers  struct {
		Cap        int `json:"cap"`
		InUse      int `json:"in_use"`
		PerExplore int `json:"per_explore"`
	} `json:"workers"`
	Lifecycle struct {
		Cancelled        int64 `json:"cancelled"`
		DeadlineExceeded int64 `json:"deadline_exceeded"`
		Shed             int64 `json:"shed"`
		ShedFull         int64 `json:"shed_full"`
		ShedWait         int64 `json:"shed_wait"`
		QueueDepth       int   `json:"queue_depth"`
		PanicsRecovered  int64 `json:"panics_recovered"`
	} `json:"lifecycle"`
	Search struct {
		Runs        int64 `json:"runs"`
		Evaluated   int64 `json:"evaluated"`
		Generations int64 `json:"generations"`
		Replays     int64 `json:"stats_replays"`
	} `json:"search"`
	Store struct {
		Retries  int64 `json:"store_retries"`
		Trips    int64 `json:"store_trips"`
		Degraded bool  `json:"store_degraded"`
	} `json:"store"`
	Ingest struct {
		Submitted          int64             `json:"submitted"`
		Accepted           int64             `json:"accepted"`
		Created            int64             `json:"created"`
		Rejected           int64             `json:"rejected"`
		Registered         int               `json:"registered"`
		RegistryLoadErrors int64             `json:"registry_load_errors"`
		RegistrySaveErrors int64             `json:"registry_save_errors"`
		Quota              ingest.QuotaStats `json:"quota"`
	} `json:"ingest"`
	Cluster struct {
		Enabled            bool                  `json:"enabled"`
		Self               string                `json:"self,omitempty"`
		Peers              []string              `json:"peers,omitempty"`
		VirtualNodes       int                   `json:"virtual_nodes,omitempty"`
		Proxied            int64                 `json:"proxied"`
		ProxyReceived      int64                 `json:"proxy_received"`
		ProxyFallbackLocal int64                 `json:"proxy_fallback_local"`
		ArtifactsServed    int64                 `json:"artifacts_served"`
		ArtifactFetch      *artifact.RemoteStats `json:"artifact_fetch,omitempty"`
	} `json:"cluster"`
	// Latency is one fixed-bucket histogram per endpoint (the requests
	// map's keys), letting a load generator's client-side percentiles
	// be cross-checked against the server's own observations.
	Latency          map[string]HistogramJSON `json:"latency"`
	PlaneBudgetBytes int64                    `json:"plane_budget_bytes"`
}

// MetricsSnapshot returns the current counters (also served at
// /metrics).
func (s *Server) MetricsSnapshot() Metrics {
	m := Metrics{
		Requests:         make(map[string]int64, len(s.endpoints)),
		Latency:          make(map[string]HistogramJSON, len(s.endpoints)),
		Errors:           s.errCount.Load(),
		InFlight:         s.inFlight.Load(),
		Pool:             s.pool.Stats(),
		PlaneBudgetBytes: s.cfg.MaxPlaneBytes,
	}
	m.Workers.Cap = s.budget.Cap()
	m.Workers.InUse = s.budget.InUse()
	m.Workers.PerExplore = s.cfg.ExploreWorkers
	m.Lifecycle.Cancelled = s.cancelled.Load()
	m.Lifecycle.DeadlineExceeded = s.deadlineExceeded.Load()
	m.Lifecycle.ShedFull = s.queue.ShedFull()
	m.Lifecycle.ShedWait = s.queue.ShedWait()
	m.Lifecycle.Shed = m.Lifecycle.ShedFull + m.Lifecycle.ShedWait
	m.Lifecycle.QueueDepth = s.queue.Depth()
	m.Lifecycle.PanicsRecovered = s.panics.Load()
	m.Search.Runs = s.searchRuns.Load()
	m.Search.Evaluated = s.searchEvaluated.Load()
	m.Search.Generations = s.searchGenerations.Load()
	m.Search.Replays = s.searchReplays.Load()
	if s.guard != nil {
		m.Store.Retries = s.guard.Retried()
		m.Store.Trips = s.guard.Trips()
		m.Store.Degraded = s.guard.Degraded()
	}
	m.Cluster.Enabled = s.ring != nil
	if s.ring != nil {
		m.Cluster.Self = s.cfg.ClusterSelf
		m.Cluster.Peers = s.ring.Nodes()
		m.Cluster.VirtualNodes = s.ring.VirtualNodes()
	}
	m.Cluster.Proxied = s.proxied.Load()
	m.Cluster.ProxyReceived = s.proxyReceived.Load()
	m.Cluster.ProxyFallbackLocal = s.proxyFallback.Load()
	m.Cluster.ArtifactsServed = s.artifactsServed.Load()
	if s.remote != nil {
		st := s.remote.Stats()
		m.Cluster.ArtifactFetch = &st
	}
	for name, ep := range s.endpoints {
		m.Requests[name] = ep.requests.Load()
		m.Latency[name] = ep.latency.snapshot()
	}
	m.Ingest.Submitted = s.ingSubmitted.Load()
	m.Ingest.Accepted = s.ingAccepted.Load()
	m.Ingest.Created = s.ingCreated.Load()
	m.Ingest.Rejected = s.ingRejected.Load()
	m.Ingest.Registered = s.registry.Len()
	m.Ingest.RegistryLoadErrors = s.registry.LoadErrors()
	m.Ingest.RegistrySaveErrors = s.registry.SaveErrors()
	m.Ingest.Quota = s.quotas.Stats()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

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
