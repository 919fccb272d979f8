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
// Predict, sweep and search share one request lifecycle (lifecycle.go):
// parse, admit, compute, encode, each endpoint supplying only its parse
// and compute steps. A request runs under its own context plus an
// optional per-endpoint deadline: a disconnected client or an elapsed
// deadline cancels the compute stack at trace-chunk granularity, and
// the response carries a machine-readable error code (see errors.go).
// Worker tokens are handed out through a bounded admission queue that
// sheds load early (429) instead of letting waiters pile up, and the
// artifact tier sits behind a retry/circuit-breaker guard so a dying
// disk degrades the service to compute-only instead of slowing it.
package service

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/uarch"
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

	// ids memoizes each benchmark's program fingerprint (see
	// workloadID).
	ids sync.Map // name -> string
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
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
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
		s.cfg.ExploreWorkers = max(1, s.budget.Cap()/2)
	}
	s.mux.HandleFunc("GET /v1/predict", s.count("predict", s.lifecycle(&s.cfg.PredictTimeout, predictParams, s.parsePredict)))
	s.mux.HandleFunc("GET /v1/explore", s.count("explore", s.lifecycle(&s.cfg.ExploreTimeout, exploreParams, s.parseExplore)))
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
	// Ingested workloads warm-start like benchmarks: the registry
	// restored their names and programs, and any whose artifact is
	// stored rehydrate without re-executing untrusted code.
	for _, sv := range s.servables() {
		if s.cfg.MaxWorkloads > 0 && loaded >= s.cfg.MaxWorkloads {
			break
		}
		// A fleet member warms only the workloads it owns; unowned ones
		// are the peers' hot set and would just be evicted here.
		if !s.owned(sv.name) || !s.store.HasWorkload(s.workloadID(sv)) {
			continue
		}
		if _, err := s.admit(context.Background(), sv); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("warm-starting %s: %w", sv.name, err)
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
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		if s.cfg.Hooks.BeforeHandle != nil {
			s.cfg.Hooks.BeforeHandle(r)
		}
		h(w, r)
	}
}

// decodeConfig builds the requested design point from query
// parameters, validated against the Table 2 domain by the same
// uarch.Table2Config validator cmd/inorder-model uses.
func decodeConfig(q url.Values) (uarch.Config, error) {
	// In Table2Config's argument order, with their defaults.
	axes := [...]struct {
		name string
		v    int
	}{{"width", 4}, {"stages", 9}, {"l2kb", 512}, {"l2ways", 8}}
	for i := range axes {
		var err error
		if axes[i].v, err = intParam(q, axes[i].name, axes[i].v); err != nil {
			return uarch.Config{}, err
		}
	}
	pred := cmp.Or(q.Get("pred"), "gshare")
	return uarch.Table2Config(uarch.Default(), axes[0].v, axes[1].v, axes[2].v, axes[3].v, pred)
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

func predictParams(url.Values) ([]string, error) {
	return []string{"bench", "width", "stages", "l2kb", "l2ways", "pred", "validate"}, nil
}

// parsePredict parses one (benchmark, design point) prediction — the
// service form of `inorder-model -bench B -width ... [-validate]`.
func (s *Server) parsePredict(q url.Values, bench string) (job, error) {
	cfg, err := decodeConfig(q)
	if err != nil {
		return job{}, err
	}
	validate, err := boolParam(q, "validate")
	if err != nil {
		return job{}, err
	}
	return job{tokens: 1, compute: func(ctx context.Context, pw *harness.Profiled, n int, _ *reply) (any, error) {
		// The workload's statistics memo answers a design point whose
		// hierarchy and predictor it holds without walking the trace,
		// so after first touch a prediction is one model evaluation.
		set, err := pw.MultiInputsCtx(ctx, []uarch.Config{cfg})
		if err != nil {
			return nil, err
		}
		in, err := set.Inputs(cfg)
		if err != nil {
			return nil, err
		}
		st, err := core.Predict(in, cfg)
		if err != nil {
			return nil, err
		}
		resp := predictResponse(bench, pw.Prof.N, cfg, st)
		if validate {
			sims, err := pw.SimulateDetailedBatchCtx(ctx, []uarch.Config{cfg}, n)
			if err != nil {
				return nil, err
			}
			sim := sims[0]
			resp.Sim = &SimJSON{Cycles: sim.Cycles, CPI: sim.CPI()}
			if sim.CPI() != 0 {
				resp.Sim.CPIErrPercent = 100 * math.Abs(st.CPI()-sim.CPI()) / sim.CPI()
			}
		}
		return resp, nil
	}}, nil
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
func domainFilter(q url.Values, d *uarch.Domain) ([]uarch.Config, error) {
	pts := d.EnumeratePoints()
	axes := d.Axes()
	for ai := range axes {
		v := q.Get(axes[ai].Name)
		if v == "" {
			continue
		}
		idx, err := axes[ai].IndexOfValue(v)
		if err != nil {
			return nil, err
		}
		pts = slices.DeleteFunc(pts, func(pt uarch.Point) bool { return pt[ai] != idx })
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

// exploreDomain is the typed parameter domain an exploration names
// with space= (default table2).
func exploreDomain(q url.Values) (*uarch.Domain, error) {
	return uarch.DomainByName(cmp.Or(q.Get("space"), "table2"))
}

// exploreParams accepts the exploration parameters plus the axes of
// the requested domain, so an unknown space is the first fault found.
func exploreParams(q url.Values) ([]string, error) {
	domain, err := exploreDomain(q)
	if err != nil {
		return nil, err
	}
	allowed := []string{"bench", "space", "mode", "budget", "seed", "validate", "top"}
	for _, ax := range domain.Axes() {
		allowed = append(allowed, ax.Name)
	}
	return allowed, nil
}

// exploreTokens is the worker tokens an exploration of at most points
// design points asks for: one for the model alone, and for a validated
// run no more than points or ExploreWorkers, so concurrent requests
// always find the rest of the pot.
func (s *Server) exploreTokens(validate bool, points int) int {
	if !validate {
		return 1
	}
	return max(1, min(s.cfg.ExploreWorkers, points))
}

// parseExplore parses a design-space exploration — the service form of
// `dse-explore -bench B [-space S] [-validate] [-search]`. mode=sweep
// (the default) evaluates every point of the domain, optionally
// narrowed by per-axis filters; mode=search runs the Pareto-aware
// heuristic search (parseSearch). With validate=true the detailed
// simulator runs at every evaluated point through the annotation-plane
// fast path, under the per-request worker budget.
func (s *Server) parseExplore(q url.Values, bench string) (job, error) {
	domain, _ := exploreDomain(q) // exploreParams accepted the space
	top, err := intParam(q, "top", 0)
	if err != nil {
		return job{}, err
	}
	validate, err := boolParam(q, "validate")
	if err != nil {
		return job{}, err
	}
	switch mode := q.Get("mode"); mode {
	case "search":
		return s.parseSearch(q, domain, bench, validate, top)
	case "", "sweep":
	default:
		return job{}, fmt.Errorf("unknown mode %q (use sweep or search)", mode)
	}
	for _, p := range []string{"budget", "seed"} {
		if q.Get(p) != "" {
			return job{}, fmt.Errorf("parameter %s applies to mode=search only", p)
		}
	}
	space, err := domainFilter(q, domain)
	if err != nil {
		return job{}, err
	}
	return job{tokens: s.exploreTokens(validate, len(space)), compute: func(ctx context.Context, pw *harness.Profiled, n int, _ *reply) (any, error) {
		return s.sweep(ctx, pw, bench, space, validate, top, n)
	}}, nil
}

// sweep is the compute step of mode=sweep.
func (s *Server) sweep(ctx context.Context, pw *harness.Profiled, bench string, space []uarch.Config, validate bool, top, workers int) (any, error) {
	var pts []dse.Point
	var err error
	if validate {
		pts, err = dse.ExploreValidatedCtx(ctx, pw, space, s.pm, workers)
	} else {
		pts, err = dse.ExploreCtx(ctx, pw, space, s.pm)
	}
	if err != nil {
		return nil, err
	}

	resp := ExploreResponse{
		Benchmark: bench,
		Count:     len(pts),
		Validated: validate,
		Workers:   workers,
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
	return resp, nil
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

// parseSearch parses mode=search: the heuristic search over a typed
// domain, streamed as NDJSON — one line per generation as it
// completes, then a summary line carrying the Pareto frontier.
func (s *Server) parseSearch(q url.Values, domain *uarch.Domain, bench string, validate bool, top int) (job, error) {
	for _, ax := range domain.Axes() {
		if q.Get(ax.Name) != "" {
			return job{}, fmt.Errorf("parameter %s applies to mode=sweep only", ax.Name)
		}
	}
	budget, err := intParam(q, "budget", 0)
	if err != nil {
		return job{}, err
	}
	if budget < 0 {
		return job{}, fmt.Errorf("parameter budget=%d is negative", budget)
	}
	seed, err := intParam(q, "seed", int64(0))
	if err != nil {
		return job{}, err
	}
	// A generation's size is not known up front: a validated search
	// asks for its whole per-request share.
	return job{tokens: s.exploreTokens(validate, math.MaxInt), stream: true, compute: func(ctx context.Context, pw *harness.Profiled, n int, out *reply) (any, error) {
		s.searchRuns.Add(1)
		res, err := dse.Search(ctx, pw, domain, uarch.Default(), s.pm, dse.SearchOptions{
			Budget:   budget,
			Seed:     seed,
			Validate: validate,
			Workers:  n,
			OnBatch: func(gen int, pts []dse.Point) error {
				return out.line(SearchBatchLine{Type: "batch", Gen: gen, Points: searchPoints(pts)})
			},
		})
		s.searchEvaluated.Add(int64(res.Evaluated))
		s.searchGenerations.Add(int64(res.Generations))
		s.searchReplays.Add(int64(res.Replays))
		if err != nil {
			return nil, err
		}
		summary := SearchSummaryLine{
			Type:        "summary",
			Benchmark:   bench,
			Space:       domain.Name,
			Cardinality: domain.Cardinality(),
			Budget:      budget,
			Seed:        seed,
			Validated:   validate,
			Workers:     n,
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
		return summary, nil
	}}, nil
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
	for _, sv := range s.servables() {
		out = append(out, WorkloadInfo{Name: sv.name, Domain: sv.domain, Resident: s.pool.Resident(sv.name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
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
	writeJSON(w, http.StatusOK, resp)
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
	if s.store != nil {
		resp.Enabled = true
		resp.Dir = s.store.Dir()
		entries, err := s.store.List()
		if err != nil {
			s.writeErr(w, err, codeInternal)
			return
		}
		resp.Entries = entries
		for _, sv := range s.servables() {
			id := s.workloadID(sv)
			resp.Workloads = append(resp.Workloads, ArtifactWorkload{
				Name:     sv.name,
				Key:      s.store.WorkloadKey(id),
				Stored:   s.store.HasWorkload(id),
				Resident: s.pool.Resident(sv.name),
			})
		}
		sort.Slice(resp.Workloads, func(i, j int) bool { return resp.Workloads[i].Name < resp.Workloads[j].Name })
	}
	writeJSON(w, http.StatusOK, resp)
}
