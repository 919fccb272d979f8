// Package service implements modeld's HTTP/JSON API: a long-running
// prediction service around the paper's workflow. A workload is
// profiled once on first request (singleflight, LRU-bounded via
// harness.Pool), after which any design-point question — a single
// prediction, a full or filtered Table 2 exploration, optionally
// validated through the annotation-plane fast path — is answered from
// the resident trace in microseconds-to-milliseconds. Results are
// bit-identical to the cmd/inorder-model and cmd/dse-explore CLIs: the
// handlers call the exact same harness/dse entry points.
//
// Every handler runs under the request's context plus an optional
// per-endpoint deadline: a disconnected client or an elapsed deadline
// cancels the compute stack at trace-chunk granularity, and the
// response carries a machine-readable error code (see errors.go).
// Worker tokens are handed out through a bounded admission queue that
// sheds load early (429) instead of letting waiters pile up, and the
// artifact tier sits behind a retry/circuit-breaker guard so a dying
// disk degrades the service to compute-only instead of slowing it.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"path/filepath"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/program"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// Hooks are test seams: chaos tests inject handler panics and disk
// faults here. Both are nil in production.
type Hooks struct {
	// BeforeHandle, when non-nil, runs at the top of every counted
	// handler, inside the panic-recovery scope.
	BeforeHandle func(*http.Request)
	// WrapTier, when non-nil, interposes on the artifact tier between
	// the store and the retry/breaker guard (e.g. a faultfs.Tier).
	WrapTier func(harness.ArtifactTier) harness.ArtifactTier
}

// Config bounds and sizes a Server.
type Config struct {
	// MaxWorkloads bounds resident profiled workloads (LRU eviction);
	// ≤ 0 means unbounded.
	MaxWorkloads int
	// MaxPlaneBytes bounds resident annotation-plane and
	// memoized-timing bytes: a total across all workloads when
	// MaxWorkloads > 0 (each gets an equal slice), per workload when
	// the workload count is unbounded. ≤ 0 means unbounded.
	MaxPlaneBytes int64
	// Workers is the total worker-token pot shared by all in-flight
	// requests; ≤ 0 means the process default (GOMAXPROCS).
	Workers int
	// ExploreWorkers caps the tokens one /v1/explore request may hold,
	// so a validated exploration cannot starve concurrent requests;
	// ≤ 0 means half the pot (minimum 1).
	ExploreWorkers int
	// MinDynInsts is the dynamic-instruction floor used when profiling
	// (the -dyninsts scaling knob); ≤ 0 means one run.
	MinDynInsts int64
	// ArtifactDir enables the persistent artifact tier: profiled
	// workloads and annotation planes are written through to this
	// content-addressed store and rehydrated — bit-identically — on
	// admission, so a restarted service answers with zero profiling
	// for every workload already on disk. "" disables the tier.
	ArtifactDir string

	// PredictTimeout caps one /v1/predict request; ≤ 0 means no
	// deadline. Elapsing answers 503 {"error":{"code":"deadline_exceeded"}}.
	PredictTimeout time.Duration
	// ExploreTimeout caps one /v1/explore request; ≤ 0 means no
	// deadline.
	ExploreTimeout time.Duration
	// QueueDepth bounds requests parked waiting for a worker token;
	// arrivals beyond it are shed with 429. ≤ 0 means unbounded.
	QueueDepth int
	// QueueWait bounds how long a request may park before being shed
	// with 429. ≤ 0 means unbounded.
	QueueWait time.Duration

	// StoreRetries is the extra attempts per failed artifact-store
	// operation (0 means the default of 2; negative disables retries).
	StoreRetries int
	// StoreBackoff is the sleep before the first retry, doubling per
	// attempt; ≤ 0 means the default (10ms).
	StoreBackoff time.Duration
	// StoreTripAfter opens the circuit breaker after this many
	// consecutive failed store operations (0 means the default of 5).
	StoreTripAfter int
	// StoreCooldown is how long a tripped breaker keeps the service
	// compute-only before probing the store again; ≤ 0 means the
	// default (30s).
	StoreCooldown time.Duration

	// MaxBodyBytes caps every request body via http.MaxBytesReader
	// (reads past it fail and answer 413 payload_too_large). 0 means
	// the 2 MiB default; negative disables the cap. This is the coarse
	// transport wall; the ingestion source-byte limit below is the
	// precise one.
	MaxBodyBytes int64
	// Ingest bounds one POST /v1/workloads submission; zero fields
	// take ingest.DefaultLimits.
	Ingest ingest.Limits
	// Quota bounds each tenant's ingestion footprint; zero fields take
	// ingest.DefaultQuota.
	Quota ingest.QuotaConfig

	// ClusterSelf is this node's own advertised address ("host:port")
	// when running as a fleet member; it must appear in ClusterPeers.
	// "" (with no peers) runs the classic single-process service.
	ClusterSelf string
	// ClusterPeers is the full fleet member list, including self. All
	// members must pass the same set (order-insensitive) so every node
	// builds the same consistent-hash ring.
	ClusterPeers []string
	// VirtualNodes is the per-member virtual point count on the ring;
	// ≤ 0 means cluster.DefaultVirtualNodes.
	VirtualNodes int
	// ProxyTimeout caps one proxied request to the owning node; ≤ 0
	// means DefaultProxyTimeout.
	ProxyTimeout time.Duration

	// Hooks are chaos-test injection points; zero in production.
	Hooks Hooks
}

// Server serves the modeld API. Create with New and mount Handler.
type Server struct {
	cfg      Config
	pool     *harness.Pool
	store    *artifact.Store
	guard    *storeGuard
	budget   *par.Budget
	queue    *par.Queue
	pm       power.Model
	mux      *http.ServeMux
	registry *ingest.Registry
	quotas   *ingest.Quotas

	// Fleet state: nil ring means single-process mode. The remote tier
	// is the peer-fetching artifact layer, kept for its counters.
	ring        *cluster.Ring
	remote      *artifact.RemoteTier
	proxyClient *http.Client

	// endpoints holds each counted endpoint's request counter and
	// latency histogram, keyed by the name /metrics reports. It is
	// filled in New and only read after.
	endpoints map[string]*endpoint

	errCount atomic.Int64
	inFlight atomic.Int64

	proxied         atomic.Int64 // requests this node forwarded to their owner
	proxyReceived   atomic.Int64 // forwarded requests this node served (loop guard)
	proxyFallback   atomic.Int64 // owner-unreachable local-compute fallbacks
	artifactsServed atomic.Int64 // raw artifacts served to peers

	ingSubmitted atomic.Int64
	ingAccepted  atomic.Int64
	ingCreated   atomic.Int64
	ingRejected  atomic.Int64

	cancelled        atomic.Int64
	deadlineExceeded atomic.Int64
	panics           atomic.Int64

	searchRuns        atomic.Int64
	searchEvaluated   atomic.Int64
	searchGenerations atomic.Int64
	searchReplays     atomic.Int64

	// ids memoizes each benchmark's artifact identity (building the
	// program once per process to fingerprint its IR), so listing and
	// warm-start paths don't rebuild every workload per request.
	ids sync.Map // string -> artifact.WorkloadID
}

// workloadID returns the artifact identity of a benchmark under this
// server's configuration, building (and memoizing) the program's
// content fingerprint on first use.
func (s *Server) workloadID(spec workloads.Spec) artifact.WorkloadID {
	if v, ok := s.ids.Load(spec.Name); ok {
		return v.(artifact.WorkloadID)
	}
	id := artifact.WorkloadID{
		Name:        spec.Name,
		MinDynInsts: s.cfg.MinDynInsts,
		Code:        spec.Build().Fingerprint(),
	}
	s.ids.Store(spec.Name, id)
	return id
}

// DefaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 2 << 20

// New builds a Server with the given bounds, opening the artifact
// store when one is configured.
func New(cfg Config) (*Server, error) {
	// Normalize the ingestion posture once so the handler, registry,
	// and flags all enforce the same numbers.
	cfg.Ingest = cfg.Ingest.WithDefaults()
	cfg.Quota = cfg.Quota.WithDefaults()
	// Fleet membership: peers without a self identity (or vice versa)
	// is a configuration mistake, and self must be a ring member —
	// otherwise this node would proxy every request and own nothing.
	var ring *cluster.Ring
	if len(cfg.ClusterPeers) > 0 || cfg.ClusterSelf != "" {
		if cfg.ClusterSelf == "" {
			return nil, fmt.Errorf("service: cluster peers configured without a self address")
		}
		peers := cfg.ClusterPeers
		if len(peers) == 0 {
			peers = []string{cfg.ClusterSelf}
		}
		var err error
		if ring, err = cluster.New(peers, cfg.VirtualNodes); err != nil {
			return nil, err
		}
		if !ring.Contains(cfg.ClusterSelf) {
			return nil, fmt.Errorf("service: self address %q is not in the peer list %v", cfg.ClusterSelf, ring.Nodes())
		}
	}
	var store *artifact.Store
	var guard *storeGuard
	var remote *artifact.RemoteTier
	if cfg.ArtifactDir != "" {
		var err error
		if store, err = artifact.Open(cfg.ArtifactDir); err != nil {
			return nil, err
		}
		var tier harness.ArtifactTier = store
		// With ring peers, the remote tier sits directly over the local
		// store: a local miss pulls the finished artifact from the
		// workload's previous owner instead of re-profiling. The chaos
		// WrapTier and the retry/breaker guard stack on top, so peer
		// fetches ride the same resilience machinery as disk reads.
		if ring != nil && ring.Len() > 1 {
			var others []string
			for _, p := range ring.Nodes() {
				if p != cfg.ClusterSelf {
					others = append(others, p)
				}
			}
			if remote, err = artifact.NewRemoteTier(store, artifact.RemoteOptions{Peers: others}); err != nil {
				return nil, err
			}
			tier = remote
		}
		if cfg.Hooks.WrapTier != nil {
			tier = cfg.Hooks.WrapTier(tier)
		}
		retries := cfg.StoreRetries
		switch {
		case retries == 0:
			retries = 2
		case retries < 0:
			retries = 0
		}
		tripAfter := cfg.StoreTripAfter
		if tripAfter == 0 {
			tripAfter = 5
		}
		guard = newStoreGuard(tier, retries, cfg.StoreBackoff, tripAfter, cfg.StoreCooldown)
	}
	budget := par.NewBudget(cfg.Workers)
	poolOpts := harness.PoolOptions{
		MaxWorkloads:  cfg.MaxWorkloads,
		MaxPlaneBytes: cfg.MaxPlaneBytes,
		MinDynInsts:   cfg.MinDynInsts,
	}
	if guard != nil {
		poolOpts.Store = guard
	}
	// The ingestion registry persists alongside the artifact store (an
	// "ingest" subdirectory) so both survive the same restarts; without
	// a store it is memory-only and ingested workloads live until the
	// process does.
	regDir := ""
	if cfg.ArtifactDir != "" {
		regDir = filepath.Join(cfg.ArtifactDir, "ingest")
	}
	registry, err := ingest.OpenRegistry(regDir, cfg.Ingest)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		guard:     guard,
		pool:      harness.NewPool(poolOpts),
		budget:    budget,
		queue:     par.NewQueue(budget, cfg.QueueDepth, cfg.QueueWait),
		pm:        power.NewModel(),
		mux:       http.NewServeMux(),
		registry:  registry,
		quotas:    ingest.NewQuotas(cfg.Quota),
		ring:      ring,
		remote:    remote,
		endpoints: make(map[string]*endpoint),
	}
	if ring != nil {
		pt := cfg.ProxyTimeout
		if pt <= 0 {
			pt = DefaultProxyTimeout
		}
		s.proxyClient = &http.Client{Timeout: pt}
	}
	if s.cfg.ExploreWorkers <= 0 {
		s.cfg.ExploreWorkers = s.budget.Cap() / 2
	}
	if s.cfg.ExploreWorkers < 1 {
		s.cfg.ExploreWorkers = 1
	}
	s.mux.HandleFunc("GET /v1/predict", s.count("predict", s.handlePredict))
	s.mux.HandleFunc("GET /v1/explore", s.count("explore", s.handleExplore))
	s.mux.HandleFunc("GET /v1/workloads", s.count("workloads", s.handleWorkloads))
	s.mux.HandleFunc("POST /v1/workloads", s.count("ingest", s.handleIngest))
	s.mux.HandleFunc("GET /v1/artifacts", s.count("artifacts", s.handleArtifacts))
	s.mux.HandleFunc("GET /v1/artifacts/{key}", s.count("artifact_get", s.handleArtifactGet))
	s.mux.HandleFunc("GET /healthz", s.count("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.count("metrics", s.handleMetrics))
	return s, nil
}

// WarmStart admits every workload already stored in the artifact
// store (up to the MaxWorkloads bound), so the first client request
// for any of them is answered from memory with zero profiling. It
// returns the number of workloads rehydrated; without a store it is a
// no-op. modeld calls this in the background on boot.
func (s *Server) WarmStart() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	loaded := 0
	var firstErr error
	for _, spec := range workloads.All() {
		if s.cfg.MaxWorkloads > 0 && loaded >= s.cfg.MaxWorkloads {
			break
		}
		// A fleet member warms only the workloads it owns; unowned ones
		// are the peers' hot set and would just be evicted here.
		if !s.owned(spec.Name) {
			continue
		}
		if !s.store.HasWorkload(s.workloadID(spec)) {
			continue
		}
		if _, _, err := s.profiled(context.Background(), spec.Name); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("warm-starting %s: %w", spec.Name, err)
			}
			continue
		}
		loaded++
	}
	// Ingested workloads warm-start the same way: the registry restored
	// their names and programs, and any whose artifact is stored
	// rehydrate without re-executing untrusted code.
	for _, entry := range s.registry.List() {
		if s.cfg.MaxWorkloads > 0 && loaded >= s.cfg.MaxWorkloads {
			break
		}
		if !s.owned(entry.Name) {
			continue
		}
		if !s.store.HasWorkload(s.ingestedID(entry)) {
			continue
		}
		if _, _, err := s.profiled(context.Background(), entry.Name); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("warm-starting %s: %w", entry.Name, err)
			}
			continue
		}
		loaded++
	}
	return loaded, firstErr
}

// owned reports whether this node serves bench directly: always true
// in single-process mode, the ring's verdict in a fleet.
func (s *Server) owned(bench string) bool {
	return s.ring == nil || s.ring.Owner(bench) == s.cfg.ClusterSelf
}

// ingestedID returns the artifact identity of an ingested workload —
// the same shape GetBuiltCtx derives during admission, so warm-start
// residency checks and admissions agree on the key.
func (s *Server) ingestedID(entry *ingest.Entry) artifact.WorkloadID {
	return artifact.WorkloadID{
		Name:        entry.Name,
		MinDynInsts: s.cfg.MinDynInsts,
		Code:        entry.Fingerprint,
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the workload cache (tests assert its counters).
func (s *Server) Pool() *harness.Pool { return s.pool }

// BeginShutdown starts the graceful drain: requests parked in the
// admission queue are rejected immediately with 503
// {"error":{"code":"shutting_down"}}, and no later request can park.
// Requests already holding worker tokens run to completion under
// http.Server.Shutdown's grace period. modeld calls this when the
// termination signal arrives, before shutting the listener down.
func (s *Server) BeginShutdown() { s.queue.Close() }

// maxBodyBytes resolves the configured request-body cap; 0 means
// uncapped (explicitly disabled with a negative config value).
func (s *Server) maxBodyBytes() int64 {
	switch {
	case s.cfg.MaxBodyBytes > 0:
		return s.cfg.MaxBodyBytes
	case s.cfg.MaxBodyBytes < 0:
		return 0
	}
	return DefaultMaxBodyBytes
}

// count is the per-endpoint middleware: request counting, latency
// observation, in-flight tracking, the shared body cap, the chaos
// hook, and panic recovery — a panicking handler answers 500
// {"error":{"code":"panic"}} and bumps a counter instead of killing
// the process. Each endpoint's counter and histogram are registered
// under name at New time, so observation is lock-free.
func (s *Server) count(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := &endpoint{}
	s.endpoints[name] = ep
	return func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Add(1)
		s.inFlight.Add(1)
		start := time.Now()
		defer func() { ep.latency.observe(time.Since(start)) }()
		defer s.inFlight.Add(-1)
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.writeErr(w, fmt.Errorf("handler panicked: %v", v), codePanic)
			}
		}()
		// Every handler reads its body (if any) under one cap: a read
		// past it fails with *http.MaxBytesError, which writeErr turns
		// into 413 payload_too_large.
		if max := s.maxBodyBytes(); max > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, max)
		}
		if s.cfg.Hooks.BeforeHandle != nil {
			s.cfg.Hooks.BeforeHandle(r)
		}
		h(w, r)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJSONStatus is writeJSON with an explicit HTTP status (201 for
// first-time ingestion registrations).
func (s *Server) writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// deadlineCtx derives the handler context: the request's own context
// (cancelled when the client disconnects) plus the endpoint's
// deadline, when one is configured.
func deadlineCtx(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// profiled resolves a benchmark through the bounded workload pool
// under ctx, returning the taxonomy fallback code for failures: an
// unknown name is the client's mistake (not_found), a failed profiling
// run is ours (internal); lifecycle errors classify themselves. The
// profiling run executes under the admission's work context — shared
// by every singleflight waiter, alive as long as any of them stays,
// cancelled when the last one leaves — and draws its worker token
// through the admission queue, so profiling load is shed like any
// other work. Singleflight waiters park tokenless, so requests for
// resident benchmarks are never stalled behind an unrelated profiling
// queue.
func (s *Server) profiled(ctx context.Context, name string) (*harness.Profiled, string, error) {
	var build func() *program.Program
	var profile func(wctx context.Context, prog *program.Program) (*harness.Profiled, error)
	if spec, err := workloads.ByName(name); err == nil {
		build = spec.Build
		profile = func(wctx context.Context, prog *program.Program) (*harness.Profiled, error) {
			n, err := s.queue.Acquire(wctx, 1)
			if err != nil {
				return nil, err
			}
			defer s.budget.Release(n)
			return harness.ProfileProgramScaledCtx(wctx, prog, s.cfg.MinDynInsts)
		}
	} else if entry, ok := s.registry.Lookup(name); ok {
		// An ingested workload. Evicted (or never-stored) entries
		// re-profile from the registered program, under the same
		// sandbox budgets as first submission: registration does not
		// promote a program to trusted.
		build = func() *program.Program { return entry.Prog }
		profile = func(wctx context.Context, prog *program.Program) (*harness.Profiled, error) {
			n, err := s.queue.Acquire(wctx, 1)
			if err != nil {
				return nil, err
			}
			defer s.budget.Release(n)
			pw, err := ingest.Profile(wctx, prog, s.cfg.MinDynInsts, s.cfg.Ingest)
			if err != nil {
				return nil, err
			}
			pw.Name = name
			return pw, nil
		}
	} else {
		return nil, codeNotFound, err
	}
	pw, err := s.pool.GetBuiltCtx(ctx, name, build, profile)
	if err != nil {
		return nil, codeInternal, err
	}
	return pw, "", nil
}

// checkParams rejects query parameters outside the endpoint's
// contract: a misspelled name (predictor=, l2_kb=) would otherwise be
// silently dropped and its default substituted — wrong numbers with a
// 200, from a service whose decoding is strict everywhere else.
func checkParams(r *http.Request, allowed ...string) error {
	for k := range r.URL.Query() {
		ok := false
		for _, a := range allowed {
			ok = ok || a == k
		}
		if !ok {
			return fmt.Errorf("unknown parameter %q (allowed: %v)", k, allowed)
		}
	}
	return nil
}

// boolParam parses a boolean query parameter (absent means false),
// rejecting unparsable spellings with an error — consistent with the
// strict Table 2 decoding of the numeric parameters.
func boolParam(r *http.Request, name string) (bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("parameter %s=%q is not a boolean", name, v)
	}
	return b, nil
}

// intParam parses an integer query parameter, returning def when
// absent.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, v)
	}
	return n, nil
}

// int64Param parses a 64-bit integer query parameter (search seeds),
// returning def when absent.
func int64Param(r *http.Request, name string, def int64) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, v)
	}
	return n, nil
}

// decodeConfig builds the requested design point from query
// parameters, validated against the Table 2 domain by the same
// uarch.Table2Config validator cmd/inorder-model uses.
func decodeConfig(r *http.Request) (uarch.Config, error) {
	width, err := intParam(r, "width", 4)
	if err != nil {
		return uarch.Config{}, err
	}
	stages, err := intParam(r, "stages", 9)
	if err != nil {
		return uarch.Config{}, err
	}
	l2kb, err := intParam(r, "l2kb", 512)
	if err != nil {
		return uarch.Config{}, err
	}
	l2ways, err := intParam(r, "l2ways", 8)
	if err != nil {
		return uarch.Config{}, err
	}
	pred := r.URL.Query().Get("pred")
	if pred == "" {
		pred = "gshare"
	}
	return uarch.Table2Config(uarch.Default(), width, stages, l2kb, l2ways, pred)
}

// ConfigJSON describes one design point in a response.
type ConfigJSON struct {
	Name      string `json:"name"`
	Width     int    `json:"width"`
	Stages    int    `json:"stages"`
	FreqMHz   int    `json:"freq_mhz"`
	L2KB      int64  `json:"l2_kb"`
	L2Ways    int    `json:"l2_ways"`
	Predictor string `json:"predictor"`
}

func configJSON(cfg uarch.Config) ConfigJSON {
	return ConfigJSON{
		Name:      cfg.String(),
		Width:     cfg.Width,
		Stages:    cfg.PipelineStages(),
		FreqMHz:   cfg.FreqMHz,
		L2KB:      cfg.Hier.L2.SizeBytes / uarch.KB,
		L2Ways:    cfg.Hier.L2.Ways,
		Predictor: uarch.PredictorName(cfg.Predictor),
	}
}

// ModelJSON is the mechanistic model's answer for one design point.
type ModelJSON struct {
	Cycles   float64            `json:"cycles"`
	CPI      float64            `json:"cpi"`
	Seconds  float64            `json:"seconds"`
	CPIStack map[string]float64 `json:"cpi_stack"`
}

// SimJSON is the detailed simulator's reference for one design point.
type SimJSON struct {
	Cycles        int64   `json:"cycles"`
	CPI           float64 `json:"cpi"`
	CPIErrPercent float64 `json:"cpi_err_percent"`
}

// PredictResponse answers /v1/predict.
type PredictResponse struct {
	Benchmark    string     `json:"benchmark"`
	Instructions int64      `json:"instructions"`
	Config       ConfigJSON `json:"config"`
	Model        ModelJSON  `json:"model"`
	Sim          *SimJSON   `json:"sim,omitempty"`
}

// handlePredict serves one (benchmark, design point) prediction —
// the service form of `inorder-model -bench B -width ... [-validate]`.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if err := checkParams(r, "bench", "width", "stages", "l2kb", "l2ways", "pred", "validate"); err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	bench := r.URL.Query().Get("bench")
	if bench == "" {
		s.writeErr(w, fmt.Errorf("missing required parameter bench"), codeBadRequest)
		return
	}
	if s.proxyToOwner(w, r, bench) {
		return
	}
	cfg, err := decodeConfig(r)
	if err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	validate, err := boolParam(r, "validate")
	if err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	ctx, cancel := deadlineCtx(r, s.cfg.PredictTimeout)
	defer cancel()
	pw, fallback, err := s.profiled(ctx, bench)
	if err != nil {
		s.writeErr(w, err, fallback)
		return
	}
	n, err := s.queue.Acquire(ctx, 1)
	if err != nil {
		s.writeErr(w, err, codeInternal)
		return
	}
	defer s.budget.Release(n)

	// The workload's statistics memo answers a design point whose
	// hierarchy and predictor it holds without walking the trace, so
	// after first touch a prediction is one model evaluation.
	set, err := pw.MultiInputsCtx(ctx, []uarch.Config{cfg})
	if err != nil {
		s.writeErr(w, err, codeInternal)
		return
	}
	in, err := set.Inputs(cfg)
	if err != nil {
		s.writeErr(w, err, codeInternal)
		return
	}
	st, err := core.Predict(in, cfg)
	if err != nil {
		s.writeErr(w, err, codeInternal)
		return
	}
	resp := predictResponse(bench, pw.Prof.N, cfg, st)
	if validate {
		sims, err := pw.SimulateDetailedBatchCtx(ctx, []uarch.Config{cfg}, n)
		if err != nil {
			s.writeErr(w, err, codeInternal)
			return
		}
		sim := sims[0]
		sj := &SimJSON{Cycles: sim.Cycles, CPI: sim.CPI()}
		if sim.CPI() != 0 {
			sj.CPIErrPercent = 100 * abs(st.CPI()-sim.CPI()) / sim.CPI()
		}
		resp.Sim = sj
	}
	s.writeJSON(w, resp)
}

// predictResponse is the model half of a /v1/predict answer: st is
// the prediction for cfg on bench, a program of n instructions.
func predictResponse(bench string, n int64, cfg uarch.Config, st *core.Stack) PredictResponse {
	stack := make(map[string]float64)
	for c := core.Component(0); c < core.NumComponents; c++ {
		if st.Cycles[c] != 0 {
			stack[c.String()] = st.CPIOf(c)
		}
	}
	return PredictResponse{
		Benchmark:    bench,
		Instructions: n,
		Config:       configJSON(cfg),
		Model: ModelJSON{
			Cycles:   st.Total(),
			CPI:      st.CPI(),
			Seconds:  cfg.Seconds(st.Total()),
			CPIStack: stack,
		},
	}
}

// ExplorePoint is one design point of an exploration response. Errors
// are reported in percent, matching /v1/predict and the response
// summary.
type ExplorePoint struct {
	Name          string  `json:"name"`
	ModelCPI      float64 `json:"model_cpi"`
	ModelEDP      float64 `json:"model_edp"`
	ModelCycles   float64 `json:"model_cycles"`
	SimCPI        float64 `json:"sim_cpi,omitempty"`
	SimEDP        float64 `json:"sim_edp,omitempty"`
	SimCycles     int64   `json:"sim_cycles,omitempty"`
	CPIErrPercent float64 `json:"cpi_err_percent"`
}

// ExploreResponse answers /v1/explore.
type ExploreResponse struct {
	Benchmark     string         `json:"benchmark"`
	Count         int            `json:"count"`
	Validated     bool           `json:"validated"`
	Workers       int            `json:"workers"`
	ModelBest     string         `json:"model_best"`
	SimBest       string         `json:"sim_best,omitempty"`
	AvgErrPercent float64        `json:"avg_err_percent"`
	MaxErrPercent float64        `json:"max_err_percent"`
	Points        []ExplorePoint `json:"points"`
}

// domainFilter narrows a typed domain's enumeration by optional
// per-axis query parameters (the axis request names: width, stages,
// l2kb, ..., and on the extended space also l1kb, l1ways, fscale).
// Each present value is validated by the axis itself, so the rejection
// lists the valid spellings dynamically.
func domainFilter(r *http.Request, d *uarch.Domain) ([]uarch.Config, error) {
	pts := d.EnumeratePoints()
	axes := d.Axes()
	for ai := range axes {
		v := r.URL.Query().Get(axes[ai].Name)
		if v == "" {
			continue
		}
		idx, err := axes[ai].IndexOfValue(v)
		if err != nil {
			return nil, err
		}
		var kept []uarch.Point
		for _, pt := range pts {
			if pt[ai] == idx {
				kept = append(kept, pt)
			}
		}
		pts = kept
	}
	space := make([]uarch.Config, len(pts))
	for i, pt := range pts {
		cfg, err := d.Apply(uarch.Default(), pt)
		if err != nil {
			return nil, err
		}
		space[i] = cfg
	}
	return space, nil
}

// handleExplore serves design-space exploration — the service form of
// `dse-explore -bench B [-space S] [-validate] [-search]`. The space
// parameter picks a typed parameter domain (default table2); mode=
// sweep (the default) evaluates every point, optionally narrowed by
// per-axis filters, while mode=search runs the Pareto-aware heuristic
// search and streams NDJSON batches as generations complete, ending
// with a frontier summary line. With validate=true the detailed
// simulator runs at every evaluated point through the annotation-plane
// fast path, under the per-request worker budget.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	spaceName := r.URL.Query().Get("space")
	if spaceName == "" {
		spaceName = "table2"
	}
	domain, err := uarch.DomainByName(spaceName)
	if err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	allowed := []string{"bench", "space", "mode", "budget", "seed", "validate", "top"}
	for _, ax := range domain.Axes() {
		allowed = append(allowed, ax.Name)
	}
	if err := checkParams(r, allowed...); err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	bench := r.URL.Query().Get("bench")
	if bench == "" {
		s.writeErr(w, fmt.Errorf("missing required parameter bench"), codeBadRequest)
		return
	}
	if s.proxyToOwner(w, r, bench) {
		return
	}
	top, err := intParam(r, "top", 0)
	if err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	validate, err := boolParam(r, "validate")
	if err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "search":
		s.exploreSearch(w, r, domain, bench, validate, top)
		return
	case "", "sweep":
	default:
		s.writeErr(w, fmt.Errorf("unknown mode %q (use sweep or search)", mode), codeBadRequest)
		return
	}
	for _, p := range []string{"budget", "seed"} {
		if r.URL.Query().Get(p) != "" {
			s.writeErr(w, fmt.Errorf("parameter %s applies to mode=search only", p), codeBadRequest)
			return
		}
	}
	space, err := domainFilter(r, domain)
	if err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	ctx, cancel := deadlineCtx(r, s.cfg.ExploreTimeout)
	defer cancel()
	pw, fallback, err := s.profiled(ctx, bench)
	if err != nil {
		s.writeErr(w, err, fallback)
		return
	}

	// A validated exploration fans out across worker tokens, but may
	// hold at most ExploreWorkers of them: concurrent requests always
	// find the rest of the pot.
	want := 1
	if validate {
		// No point holding more tokens than there are design points.
		want = s.cfg.ExploreWorkers
		if want > len(space) {
			want = len(space)
		}
		if want < 1 {
			want = 1
		}
	}
	tokens, err := s.queue.Acquire(ctx, want)
	if err != nil {
		s.writeErr(w, err, codeInternal)
		return
	}
	defer s.budget.Release(tokens)

	var pts []dse.Point
	if validate {
		pts, err = dse.ExploreValidatedCtx(ctx, pw, space, s.pm, tokens)
	} else {
		pts, err = dse.ExploreCtx(ctx, pw, space, s.pm)
	}
	if err != nil {
		s.writeErr(w, err, codeInternal)
		return
	}

	resp := ExploreResponse{
		Benchmark: bench,
		Count:     len(pts),
		Validated: validate,
		Workers:   tokens,
	}
	mBest, sBest := dse.BestEDP(pts)
	if mBest >= 0 {
		resp.ModelBest = pts[mBest].Cfg.Name
	}
	if sBest >= 0 {
		resp.SimBest = pts[sBest].Cfg.Name
	}
	out := pts
	if top > 0 {
		out = append([]dse.Point(nil), pts...)
		sort.Slice(out, func(i, j int) bool { return out[i].ModelEDP < out[j].ModelEDP })
		if top < len(out) {
			out = out[:top]
		}
	}
	resp.Points = make([]ExplorePoint, len(out))
	for i, p := range out {
		ep := ExplorePoint{
			Name:        p.Cfg.Name,
			ModelCPI:    p.ModelCPI,
			ModelEDP:    p.ModelEDP,
			ModelCycles: p.ModelCycles,
		}
		if p.Sim != nil {
			ep.SimCPI = p.SimCPI
			ep.SimEDP = p.SimEDP
			ep.SimCycles = p.Sim.Cycles
			ep.CPIErrPercent = 100 * p.CPIErr
		}
		resp.Points[i] = ep
	}
	if validate && len(pts) > 0 {
		var sum, max float64
		for _, p := range pts {
			sum += p.CPIErr
			if p.CPIErr > max {
				max = p.CPIErr
			}
		}
		resp.AvgErrPercent = 100 * sum / float64(len(pts))
		resp.MaxErrPercent = 100 * max
	}
	s.writeJSON(w, resp)
}

// SearchPoint is one evaluated design point of a mode=search stream.
type SearchPoint struct {
	Name          string  `json:"name"`
	ModelCPI      float64 `json:"model_cpi"`
	ModelEDP      float64 `json:"model_edp"`
	ModelSeconds  float64 `json:"model_seconds"`
	ModelEnergyJ  float64 `json:"model_energy_j"`
	SimCPI        float64 `json:"sim_cpi,omitempty"`
	SimEDP        float64 `json:"sim_edp,omitempty"`
	CPIErrPercent float64 `json:"cpi_err_percent,omitempty"`
}

func searchPoints(pts []dse.Point) []SearchPoint {
	out := make([]SearchPoint, len(pts))
	for i, p := range pts {
		sp := SearchPoint{
			Name:         p.Cfg.Name,
			ModelCPI:     p.ModelCPI,
			ModelEDP:     p.ModelEDP,
			ModelSeconds: p.ModelSecs,
			ModelEnergyJ: p.ModelEnergyJ,
		}
		if p.Sim != nil {
			sp.SimCPI = p.SimCPI
			sp.SimEDP = p.SimEDP
			sp.CPIErrPercent = 100 * p.CPIErr
		}
		out[i] = sp
	}
	return out
}

// SearchBatchLine is one NDJSON line of a mode=search response: a
// generation's evaluated points, streamed as soon as they exist.
type SearchBatchLine struct {
	Type   string        `json:"type"` // "batch"
	Gen    int           `json:"gen"`
	Points []SearchPoint `json:"points"`
}

// SearchSummaryLine is the final NDJSON line of a mode=search
// response: the Pareto frontier over every evaluated point plus the
// search's economy counters.
type SearchSummaryLine struct {
	Type        string        `json:"type"` // "summary"
	Benchmark   string        `json:"benchmark"`
	Space       string        `json:"space"`
	Cardinality int64         `json:"cardinality"`
	Budget      int           `json:"budget"`
	Seed        int64         `json:"seed"`
	Validated   bool          `json:"validated"`
	Workers     int           `json:"workers"`
	Evaluated   int           `json:"evaluated"`
	Generations int           `json:"generations"`
	Replays     int           `json:"stats_replays"`
	BestEDP     string        `json:"best_edp"`
	FrontSize   int           `json:"front_size"`
	Front       []SearchPoint `json:"front"`
}

// SearchErrorLine is the trailing NDJSON line of a mode=search stream
// that failed after batches were already flushed (the status is long
// gone, so the error travels in-band).
type SearchErrorLine struct {
	Type string `json:"type"` // "error"
	ErrorBody
}

// exploreSearch serves /v1/explore?mode=search: the heuristic search
// over a typed domain, streamed as NDJSON — one line per generation,
// then a summary line carrying the Pareto frontier.
func (s *Server) exploreSearch(w http.ResponseWriter, r *http.Request, domain *uarch.Domain, bench string, validate bool, top int) {
	for _, ax := range domain.Axes() {
		if r.URL.Query().Get(ax.Name) != "" {
			s.writeErr(w, fmt.Errorf("parameter %s applies to mode=sweep only", ax.Name), codeBadRequest)
			return
		}
	}
	budget, err := intParam(r, "budget", 0)
	if err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	if budget < 0 {
		s.writeErr(w, fmt.Errorf("parameter budget=%d is negative", budget), codeBadRequest)
		return
	}
	seed, err := int64Param(r, "seed", 0)
	if err != nil {
		s.writeErr(w, err, codeBadRequest)
		return
	}
	ctx, cancel := deadlineCtx(r, s.cfg.ExploreTimeout)
	defer cancel()
	pw, fallback, err := s.profiled(ctx, bench)
	if err != nil {
		s.writeErr(w, err, fallback)
		return
	}
	want := 1
	if validate {
		want = s.cfg.ExploreWorkers
		if want < 1 {
			want = 1
		}
	}
	tokens, err := s.queue.Acquire(ctx, want)
	if err != nil {
		s.writeErr(w, err, codeInternal)
		return
	}
	defer s.budget.Release(tokens)

	s.searchRuns.Add(1)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	streamed := false
	opts := dse.SearchOptions{
		Budget:   budget,
		Seed:     seed,
		Validate: validate,
		Workers:  tokens,
		OnBatch: func(gen int, pts []dse.Point) error {
			if !streamed {
				w.Header().Set("Content-Type", "application/x-ndjson")
				streamed = true
			}
			if err := enc.Encode(SearchBatchLine{Type: "batch", Gen: gen, Points: searchPoints(pts)}); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		},
	}
	res, err := dse.Search(ctx, pw, domain, uarch.Default(), s.pm, opts)
	s.searchEvaluated.Add(int64(res.Evaluated))
	s.searchGenerations.Add(int64(res.Generations))
	s.searchReplays.Add(int64(res.Replays))
	if err != nil {
		if !streamed {
			s.writeErr(w, err, codeInternal)
			return
		}
		var line SearchErrorLine
		line.Type = "error"
		line.Error.Code = s.countErr(err, codeInternal)
		line.Error.Message = err.Error()
		_ = enc.Encode(line)
		return
	}
	summary := SearchSummaryLine{
		Type:        "summary",
		Benchmark:   bench,
		Space:       domain.Name,
		Cardinality: domain.Cardinality(),
		Budget:      budget,
		Seed:        seed,
		Validated:   validate,
		Workers:     tokens,
		Evaluated:   res.Evaluated,
		Generations: res.Generations,
		Replays:     res.Replays,
		FrontSize:   len(res.Front),
	}
	if mBest, sBest := dse.BestEDP(res.Front); sBest >= 0 {
		summary.BestEDP = res.Front[sBest].Cfg.Name
	} else if mBest >= 0 {
		summary.BestEDP = res.Front[mBest].Cfg.Name
	}
	front := res.Front
	if top > 0 && top < len(front) {
		front = front[:top]
	}
	summary.Front = searchPoints(front)
	if !streamed {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	_ = enc.Encode(summary)
	if flusher != nil {
		flusher.Flush()
	}
}

// WorkloadInfo is one /v1/workloads row.
type WorkloadInfo struct {
	Name     string `json:"name"`
	Domain   string `json:"domain"`
	Resident bool   `json:"resident"`
}

// IngestedDomain is the Domain /v1/workloads reports for ingested
// (user-submitted) workloads, distinguishing them from the compiled-in
// benchmark suite.
const IngestedDomain = "user"

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []WorkloadInfo
	for _, spec := range workloads.All() {
		out = append(out, WorkloadInfo{
			Name:     spec.Name,
			Domain:   spec.Domain,
			Resident: s.pool.Resident(spec.Name),
		})
	}
	for _, entry := range s.registry.List() {
		out = append(out, WorkloadInfo{
			Name:     entry.Name,
			Domain:   IngestedDomain,
			Resident: s.pool.Resident(entry.Name),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	s.writeJSON(w, map[string]any{"workloads": out})
}

// StoreHealth reports the artifact store's state in /healthz.
type StoreHealth struct {
	Dir           string `json:"dir"`
	FormatVersion int    `json:"format_version"`
	Writable      bool   `json:"writable"`
	Error         string `json:"error,omitempty"`
}

// HealthResponse answers /healthz. Status stays "ok" as long as the
// service can answer requests; it becomes "degraded" while the
// artifact-store circuit breaker is open (cold profiling keeps
// working, disk is skipped) — reported without failing liveness.
type HealthResponse struct {
	Status        string       `json:"status"`
	ArtifactStore *StoreHealth `json:"artifact_store,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok"}
	if s.store != nil {
		sh := &StoreHealth{Dir: s.store.Dir(), FormatVersion: artifact.FormatVersion}
		if s.guard != nil && s.guard.Degraded() {
			// Don't probe a disk the breaker just gave up on: that
			// would reintroduce the latency the cooldown exists to
			// avoid.
			resp.Status = "degraded"
			sh.Error = "circuit breaker open: store operations suspended for cooldown"
		} else if err := s.store.Probe(); err != nil {
			sh.Error = err.Error()
		} else {
			sh.Writable = true
		}
		resp.ArtifactStore = sh
	}
	s.writeJSON(w, resp)
}

// ArtifactWorkload is one /v1/artifacts residency row: whether a known
// benchmark has a stored artifact under this server's identity
// parameters, and whether it is currently resident in memory.
type ArtifactWorkload struct {
	Name     string `json:"name"`
	Key      string `json:"key"`
	Stored   bool   `json:"stored"`
	Resident bool   `json:"resident"`
}

// ArtifactsResponse answers /v1/artifacts.
type ArtifactsResponse struct {
	Enabled       bool               `json:"enabled"`
	Dir           string             `json:"dir,omitempty"`
	FormatVersion int                `json:"format_version"`
	Entries       []artifact.Info    `json:"entries"`
	Workloads     []ArtifactWorkload `json:"workloads"`
}

// handleArtifacts lists the store's contents plus a per-benchmark
// residency view (stored on disk / resident in memory).
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	resp := ArtifactsResponse{FormatVersion: artifact.FormatVersion}
	if s.store == nil {
		s.writeJSON(w, resp)
		return
	}
	resp.Enabled = true
	resp.Dir = s.store.Dir()
	entries, err := s.store.List()
	if err != nil {
		s.writeErr(w, err, codeInternal)
		return
	}
	resp.Entries = entries
	for _, spec := range workloads.All() {
		id := s.workloadID(spec)
		resp.Workloads = append(resp.Workloads, ArtifactWorkload{
			Name:     spec.Name,
			Key:      s.store.WorkloadKey(id),
			Stored:   s.store.HasWorkload(id),
			Resident: s.pool.Resident(spec.Name),
		})
	}
	for _, entry := range s.registry.List() {
		id := s.ingestedID(entry)
		resp.Workloads = append(resp.Workloads, ArtifactWorkload{
			Name:     entry.Name,
			Key:      s.store.WorkloadKey(id),
			Stored:   s.store.HasWorkload(id),
			Resident: s.pool.Resident(entry.Name),
		})
	}
	sort.Slice(resp.Workloads, func(i, j int) bool { return resp.Workloads[i].Name < resp.Workloads[j].Name })
	s.writeJSON(w, resp)
}

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
	s.writeJSON(w, s.MetricsSnapshot())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
