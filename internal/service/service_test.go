package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(mustNew(t, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func profiledDirect(t *testing.T, name string) *harness.Profiled {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	return pw
}

// TestPredictMatchesHarness pins the acceptance contract: a validated
// /v1/predict answer is bit-identical to what the inorder-model CLI
// computes through pw.Predict, and its detailed result to
// pipeline.Simulate — the oracle the validation path is pinned
// against. Profiling is deterministic, so an independently profiled reference reproduces the
// service's floats exactly (JSON round-trips float64 losslessly).
func TestPredictMatchesHarness(t *testing.T) {
	ts := newTestServer(t, Config{})
	var got PredictResponse
	resp := getJSON(t, ts.URL+"/v1/predict?bench=crc32&width=2&stages=5&l2kb=256&l2ways=16&pred=hybrid&validate=true", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	cfg, err := uarch.Table2Config(uarch.Default(), 2, 5, 256, 16, "hybrid")
	if err != nil {
		t.Fatal(err)
	}
	pw := profiledDirect(t, "crc32")
	st, err := pw.PredictCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipeline.Simulate(pw.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if got.Instructions != pw.Prof.N {
		t.Errorf("instructions = %d, want %d", got.Instructions, pw.Prof.N)
	}
	if got.Model.CPI != st.CPI() || got.Model.Cycles != st.Total() {
		t.Errorf("model = cycles %v CPI %v, want cycles %v CPI %v",
			got.Model.Cycles, got.Model.CPI, st.Total(), st.CPI())
	}
	if got.Sim == nil {
		t.Fatal("validate=true returned no sim block")
	}
	if got.Sim.Cycles != sim.Cycles || got.Sim.CPI != sim.CPI() {
		t.Errorf("sim = cycles %d CPI %v, want cycles %d CPI %v",
			got.Sim.Cycles, got.Sim.CPI, sim.Cycles, sim.CPI())
	}
	if got.Config.Width != 2 || got.Config.Stages != 5 || got.Config.L2KB != 256 ||
		got.Config.L2Ways != 16 || got.Config.Predictor != "hybrid" {
		t.Errorf("echoed config %+v does not match request", got.Config)
	}
}

// TestExploreMatchesDSE pins the exploration contract: a validated,
// filtered /v1/explore returns exactly dse.ExploreValidatedCtx's numbers
// for the same filtered space, point for point.
func TestExploreMatchesDSE(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	var got ExploreResponse
	resp := getJSON(t, ts.URL+"/v1/explore?bench=crc32&validate=true&width=2&l2kb=128&pred=gshare", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var space []uarch.Config
	for _, c := range dse.Space(uarch.Default()) {
		if c.Width == 2 && c.Hier.L2.SizeBytes == 128*uarch.KB && c.Predictor == uarch.PredGShare1KB {
			space = append(space, c)
		}
	}
	if len(space) == 0 || got.Count != len(space) {
		t.Fatalf("filtered space: service %d points, reference %d", got.Count, len(space))
	}
	pw := profiledDirect(t, "crc32")
	want, err := dse.ExploreValidatedCtx(context.Background(), pw, space, power.NewModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wantByName := make(map[string]dse.Point, len(want))
	for _, p := range want {
		wantByName[p.Cfg.Name] = p
	}
	mBest, sBest := dse.BestEDP(want)
	if got.ModelBest != want[mBest].Cfg.Name || got.SimBest != want[sBest].Cfg.Name {
		t.Errorf("best points %q/%q, want %q/%q",
			got.ModelBest, got.SimBest, want[mBest].Cfg.Name, want[sBest].Cfg.Name)
	}
	for _, gp := range got.Points {
		wp, ok := wantByName[gp.Name]
		if !ok {
			t.Fatalf("service returned unknown point %q", gp.Name)
		}
		if gp.ModelCPI != wp.ModelCPI || gp.ModelEDP != wp.ModelEDP ||
			gp.SimCPI != wp.SimCPI || gp.SimEDP != wp.SimEDP || gp.CPIErrPercent != 100*wp.CPIErr {
			t.Errorf("point %s diverges:\n got  %+v\n want model %v/%v sim %v/%v err %v",
				gp.Name, gp, wp.ModelCPI, wp.ModelEDP, wp.SimCPI, wp.SimEDP, wp.CPIErr)
		}
	}
}

// TestPredictSingleflight pins the admission contract end to end:
// concurrent requests for one benchmark profile it exactly once.
func TestPredictSingleflight(t *testing.T) {
	srv := mustNew(t, Config{MaxWorkloads: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const callers = 12
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/predict?bench=crc32")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if n := srv.Pool().ProfileCount(); n != 1 {
		t.Fatalf("%d concurrent predicts ran %d profiling executions, want 1", callers, n)
	}
	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Pool.Profiles != 1 || m.Requests["predict"] != callers {
		t.Fatalf("metrics = %+v, want 1 profile and %d predict requests", m, callers)
	}
}

// TestWorkloadEviction pins the LRU bound through the HTTP surface.
func TestWorkloadEviction(t *testing.T) {
	srv := mustNew(t, Config{MaxWorkloads: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, bench := range []string{"crc32", "sha"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/predict?bench=%s", ts.URL, bench))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s: status %d", bench, resp.StatusCode)
		}
	}
	st := srv.Pool().Stats()
	if st.Resident != 1 || st.Evictions != 1 {
		t.Fatalf("pool stats %+v, want 1 resident and 1 eviction", st)
	}
	if srv.Pool().Resident("crc32") {
		t.Fatal("LRU workload crc32 still resident")
	}
}

// TestWorkloadsEndpoint pins the listing plus residency flags.
func TestWorkloadsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/predict?bench=crc32")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var got struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}
	getJSON(t, ts.URL+"/v1/workloads", &got)
	if len(got.Workloads) != len(workloads.All()) {
		t.Fatalf("listed %d workloads, want %d", len(got.Workloads), len(workloads.All()))
	}
	found := false
	for _, w := range got.Workloads {
		if w.Name == "crc32" {
			found = true
			if !w.Resident {
				t.Error("crc32 not marked resident after a predict")
			}
		} else if w.Resident {
			t.Errorf("%s marked resident without being requested", w.Name)
		}
	}
	if !found {
		t.Fatal("crc32 missing from workload list")
	}
}

// TestHealthz pins the liveness endpoint, with and without a store.
func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	var got HealthResponse
	resp := getJSON(t, ts.URL+"/healthz", &got)
	if resp.StatusCode != http.StatusOK || got.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, got)
	}
	if got.ArtifactStore != nil {
		t.Fatalf("healthz reports a store without one configured: %+v", got.ArtifactStore)
	}

	dir := t.TempDir()
	ts2 := newTestServer(t, Config{ArtifactDir: dir})
	var got2 HealthResponse
	if resp := getJSON(t, ts2.URL+"/healthz", &got2); resp.StatusCode != http.StatusOK || got2.Status != "ok" {
		t.Fatalf("healthz with store = %d %+v", resp.StatusCode, got2)
	}
	sh := got2.ArtifactStore
	if sh == nil || sh.Dir != dir || !sh.Writable || sh.FormatVersion != artifact.FormatVersion {
		t.Fatalf("healthz store report = %+v, want writable dir %s at format version %d", sh, dir, artifact.FormatVersion)
	}
}

// TestRequestValidation pins the shared Table 2 validator and the
// error taxonomy of the API surface: the same inputs that must not
// panic the CLIs must come back as clean 4xx JSON errors here, each
// carrying its machine-readable {"error":{"code":...}} body.
func TestRequestValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		url  string
		code int
		tax  string
	}{
		{"/v1/predict", http.StatusBadRequest, "bad_request"},                      // missing bench
		{"/v1/predict?bench=nosuch", http.StatusNotFound, "not_found"},             // unknown workload
		{"/v1/predict?bench=crc32&width=0", http.StatusBadRequest, "bad_request"},  // below Table 2
		{"/v1/predict?bench=crc32&width=7", http.StatusBadRequest, "bad_request"},  // above Table 2
		{"/v1/predict?bench=crc32&l2kb=100", http.StatusBadRequest, "bad_request"}, // non-power-of-two L2
		{"/v1/predict?bench=crc32&l2ways=5", http.StatusBadRequest, "bad_request"}, // bad associativity
		{"/v1/predict?bench=crc32&stages=6", http.StatusBadRequest, "bad_request"}, // bad depth
		{"/v1/predict?bench=crc32&pred=alwaystaken", http.StatusBadRequest, "bad_request"},
		{"/v1/predict?bench=crc32&width=abc", http.StatusBadRequest, "bad_request"},        // non-integer
		{"/v1/predict?bench=crc32&validate=yes", http.StatusBadRequest, "bad_request"},     // non-boolean
		{"/v1/predict?bench=crc32&predictor=hybrid", http.StatusBadRequest, "bad_request"}, // misspelled param
		{"/v1/explore?bench=crc32&l2_kb=256", http.StatusBadRequest, "bad_request"},        // misspelled filter
		{"/v1/explore?bench=crc32&l2kb=100", http.StatusBadRequest, "bad_request"},         // bad filter
		{"/v1/explore", http.StatusBadRequest, "bad_request"},                              // missing bench
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.url, resp.StatusCode, c.code)
		}
		if body.Error.Code != c.tax {
			t.Errorf("%s: error code %q, want %q", c.url, body.Error.Code, c.tax)
		}
		if body.Error.Message == "" {
			t.Errorf("%s: no JSON error message", c.url)
		}
	}

	// A repeated parameter is refused, naming it, not read as its first
	// value.
	for _, c := range []struct{ url, param string }{
		{"/v1/predict?bench=sha&width=1&width=4", "width"},
		{"/v1/predict?bench=crc32&bench=sha", "bench"},
		{"/v1/predict?bench=crc32&validate=true&validate=true", "validate"},
		{"/v1/explore?bench=crc32&l2kb=128&l2kb=256", "l2kb"},
		{"/v1/explore?bench=crc32&mode=search&seed=1&seed=1", "seed"},
	} {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || body.Error.Code != "bad_request" {
			t.Errorf("%s: status %d code %q, want 400 bad_request", c.url, resp.StatusCode, body.Error.Code)
		}
		if !strings.Contains(body.Error.Message, c.param) {
			t.Errorf("%s: error message %q does not name parameter %s", c.url, body.Error.Message, c.param)
		}
	}

	// A negative top is clamped (the dse-explore CLI used to panic on
	// this): the full filtered space comes back, no error.
	var got ExploreResponse
	resp := getJSON(t, ts.URL+"/v1/explore?bench=crc32&width=1&l2kb=128&l2ways=8&pred=gshare&top=-3", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("negative top: status %d", resp.StatusCode)
	}
	if got.Count != 3 || len(got.Points) != 3 { // 3 depth/frequency settings remain
		t.Fatalf("negative top: %d points (len %d), want 3", got.Count, len(got.Points))
	}
}
