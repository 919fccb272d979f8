package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/pipeline"
)

// serveCtx drives one request through the full handler chain under an
// explicit context, returning the recorded response.
func serveCtx(srv *Server, ctx context.Context, url string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", url, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func errBody(t *testing.T, rec *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var body ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("decoding error body %q: %v", rec.Body.String(), err)
	}
	return body
}

// settle polls until the process goroutine count drops back to at most
// base+slack, so chaos tests prove cancelled work actually unwinds.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked goroutines: %d running, started from %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelledRequestNeverAcquiresTokens is the regression test for
// the detached-context bug: a request that is already cancelled when
// it arrives must be rejected before any admission work — no worker
// token is acquired and no profiling run starts on its behalf.
func TestCancelledRequestNeverAcquiresTokens(t *testing.T) {
	srv := mustNew(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	rec := serveCtx(srv, ctx, "/v1/predict?bench=crc32")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request answered %d, want 503", rec.Code)
	}
	if body := errBody(t, rec); body.Error.Code != "cancelled" {
		t.Fatalf("cancelled request coded %q, want cancelled", body.Error.Code)
	}
	if n := srv.Pool().Stats().Profiles; n != 0 {
		t.Fatalf("cancelled request triggered %d profiling runs, want 0", n)
	}
	if st := srv.Pool().Stats(); st.InFlight != 0 {
		t.Fatalf("cancelled request left %d admissions in flight", st.InFlight)
	}
	if n := srv.budget.InUse(); n != 0 {
		t.Fatalf("cancelled request holds %d worker tokens, want 0", n)
	}
	m := srv.MetricsSnapshot()
	if m.Lifecycle.Cancelled != 1 {
		t.Fatalf("cancelled counter = %d, want 1", m.Lifecycle.Cancelled)
	}
}

// TestPredictDeadlineExceeded pins the per-endpoint deadline: a
// timeout too short for profiling answers 503 deadline_exceeded, the
// aborted admission is not cached, and a follow-up request with no
// deadline succeeds.
func TestPredictDeadlineExceeded(t *testing.T) {
	srv := mustNew(t, Config{PredictTimeout: time.Nanosecond})
	rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline request answered %d, want 503", rec.Code)
	}
	if body := errBody(t, rec); body.Error.Code != "deadline_exceeded" {
		t.Fatalf("deadline request coded %q, want deadline_exceeded", body.Error.Code)
	}
	if m := srv.MetricsSnapshot(); m.Lifecycle.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded counter = %d, want 1", m.Lifecycle.DeadlineExceeded)
	}

	srv.cfg.PredictTimeout = 0
	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32"); rec.Code != http.StatusOK {
		t.Fatalf("predict after deadline chaos answered %d: %s", rec.Code, rec.Body.String())
	}
}

// TestLoadShedding pins admission control: with the pot occupied, one
// request may park in the depth-1 queue, the next is shed immediately
// with 429 + Retry-After, and the parked request completes once a
// token frees up.
func TestLoadShedding(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	// Make crc32 resident first so the parked request needs only the
	// post-admission prediction token.
	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up predict answered %d", rec.Code)
	}

	held, err := srv.budget.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		parked <- serveCtx(srv, context.Background(), "/v1/predict?bench=crc32")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queue.Depth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked in the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	shed := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32")
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request answered %d, want 429", shed.Code)
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After")
	}
	if body := errBody(t, shed); body.Error.Code != "overloaded" {
		t.Fatalf("shed request coded %q, want overloaded", body.Error.Code)
	}

	srv.budget.Release(held)
	if rec := <-parked; rec.Code != http.StatusOK {
		t.Fatalf("parked request answered %d after the token freed: %s", rec.Code, rec.Body.String())
	}
	m := srv.MetricsSnapshot()
	if m.Lifecycle.Shed != 1 || m.Lifecycle.ShedFull != 1 {
		t.Fatalf("shed counters = %+v, want exactly one full-queue shed", m.Lifecycle)
	}
	if m.Lifecycle.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", m.Lifecycle.QueueDepth)
	}
}

// TestQueueWaitShedding pins the wait-time cap: a request that cannot
// obtain a token within QueueWait is shed with 429 instead of parking
// forever.
func TestQueueWaitShedding(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueWait: 20 * time.Millisecond})
	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up predict answered %d", rec.Code)
	}
	held, err := srv.budget.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.budget.Release(held)

	rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("wait-capped request answered %d, want 429", rec.Code)
	}
	if m := srv.MetricsSnapshot(); m.Lifecycle.ShedWait != 1 {
		t.Fatalf("shed_wait counter = %d, want 1", m.Lifecycle.ShedWait)
	}
}

// TestShutdownDrainsQueue pins the graceful drain: BeginShutdown
// rejects parked requests immediately with 503 shutting_down, rejects
// new arrivals the same way, and leaves already-acquired tokens valid.
func TestShutdownDrainsQueue(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1})
	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up predict answered %d", rec.Code)
	}
	held, err := srv.budget.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.budget.Release(held)

	parked := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		parked <- serveCtx(srv, context.Background(), "/v1/predict?bench=crc32")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queue.Depth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never parked in the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	srv.BeginShutdown()
	rec := <-parked
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("parked request answered %d during drain, want 503", rec.Code)
	}
	if body := errBody(t, rec); body.Error.Code != "shutting_down" {
		t.Fatalf("parked request coded %q, want shutting_down", body.Error.Code)
	}
	late := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32")
	if late.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request answered %d, want 503", late.Code)
	}
	if body := errBody(t, late); body.Error.Code != "shutting_down" {
		t.Fatalf("post-drain request coded %q, want shutting_down", body.Error.Code)
	}
}

// TestHandlerPanicRecovered pins the panic middleware: an injected
// handler panic answers 500 {"error":{"code":"panic"}} and bumps the
// counter; the process — and the next request — survive.
func TestHandlerPanicRecovered(t *testing.T) {
	srv := mustNew(t, Config{Hooks: Hooks{BeforeHandle: func(r *http.Request) {
		if r.Header.Get("X-Chaos-Panic") != "" {
			panic("injected chaos panic")
		}
	}}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/workloads", nil)
	req.Header.Set("X-Chaos-Panic", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || body.Error.Code != "panic" {
		t.Fatalf("panicking handler answered %d %q, want 500 panic", resp.StatusCode, body.Error.Code)
	}

	ok, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic answered %d", ok.StatusCode)
	}
	if m := srv.MetricsSnapshot(); m.Lifecycle.PanicsRecovered != 1 {
		t.Fatalf("panics_recovered = %d, want 1", m.Lifecycle.PanicsRecovered)
	}
}

// TestStoreRetriesTransientFault pins the retry layer: a single
// transient disk fault is absorbed by an in-place retry — the request
// succeeds, the workload still reaches the store, and no breaker
// trips.
func TestStoreRetriesTransientFault(t *testing.T) {
	ft := &faultfs.Tier{}
	srv := mustNew(t, Config{ArtifactDir: t.TempDir(), Hooks: Hooks{StoreLayer: ft.Layer}})
	srv.guard.backoff = time.Millisecond
	ft.SetPlan(faultfs.Plan{Err: errors.New("transient I/O glitch"), Remaining: 1})

	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32"); rec.Code != http.StatusOK {
		t.Fatalf("predict over glitching store answered %d: %s", rec.Code, rec.Body.String())
	}
	m := srv.MetricsSnapshot()
	if m.Store.Retries == 0 {
		t.Fatal("transient fault was not retried")
	}
	if m.Store.Trips != 0 || m.Store.Degraded {
		t.Fatalf("single transient fault tripped the breaker: %+v", m.Store)
	}
	if m.Pool.DiskWrites == 0 {
		t.Fatalf("workload never reached the store after retry: %+v", m.Pool)
	}
}

// TestStoreBreakerTripsAndRecovers pins degraded mode end to end: a
// persistently failing store trips the breaker after the configured
// consecutive failures, /healthz reports "degraded" while requests
// keep succeeding compute-only, and after the cooldown (with the disk
// healthy again) the service returns to "ok" and resumes writing
// through.
func TestStoreBreakerTripsAndRecovers(t *testing.T) {
	ft := &faultfs.Tier{}
	srv := mustNew(t, Config{ArtifactDir: t.TempDir(), Hooks: Hooks{StoreLayer: ft.Layer}})
	srv.guard.retries = 0 // no retries: each faulted op counts once
	srv.guard.tripAfter = 2
	srv.guard.cooldown = time.Hour // expired manually below, so slow runs can't race it
	ft.SetPlan(faultfs.Plan{Err: errors.New("disk on fire")})

	// One admission = one failed load + one failed save = the trip
	// threshold. The request itself must still succeed.
	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32"); rec.Code != http.StatusOK {
		t.Fatalf("predict over dead store answered %d: %s", rec.Code, rec.Body.String())
	}
	m := srv.MetricsSnapshot()
	if m.Store.Trips != 1 || !m.Store.Degraded {
		t.Fatalf("breaker state after faults = %+v, want tripped+degraded", m.Store)
	}
	if m.Pool.DiskErrors == 0 {
		t.Fatalf("pool observed no disk errors: %+v", m.Pool)
	}

	rec := serveCtx(srv, context.Background(), "/healthz")
	var health HealthResponse
	if err := json.NewDecoder(rec.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("healthz during open breaker = %q, want degraded", health.Status)
	}

	// Degraded mode: requests still work, the store is not touched.
	before := ft.Ops()
	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=sha"); rec.Code != http.StatusOK {
		t.Fatalf("predict while degraded answered %d", rec.Code)
	}
	if after := ft.Ops(); after != before {
		t.Fatalf("degraded service still touched the store (%d → %d ops)", before, after)
	}

	// Disk recovers; the cooldown elapses (fast-forwarded so the test
	// doesn't depend on wall-clock pacing); the breaker closes on the
	// next successful operation and writes resume.
	ft.Clear()
	srv.guard.mu.Lock()
	srv.guard.degradedUntil = time.Now()
	srv.guard.mu.Unlock()
	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=dijkstra"); rec.Code != http.StatusOK {
		t.Fatalf("predict after recovery answered %d", rec.Code)
	}
	m = srv.MetricsSnapshot()
	if m.Store.Degraded {
		t.Fatal("breaker still open after cooldown with a healthy disk")
	}
	if m.Pool.DiskWrites == 0 {
		t.Fatalf("no write-through after recovery: %+v", m.Pool)
	}
	rec = serveCtx(srv, context.Background(), "/healthz")
	health = HealthResponse{}
	if err := json.NewDecoder(rec.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz after recovery = %q, want ok", health.Status)
	}
}

// TestClientDisconnectStopsExplore is the end-to-end chaos case: a
// client abandons a validated exploration mid-flight. The handler must
// return promptly with 503 cancelled, the fan-out must unwind (bounded
// goroutines, no tokens held), and a concurrent prediction on the same
// workload — the non-faulted path — must stay bit-identical to the
// direct harness answer.
func TestClientDisconnectStopsExplore(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := mustNew(t, Config{Workers: 4, ExploreWorkers: 2})
	if rec := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up predict answered %d", rec.Code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	exploreDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		exploreDone <- serveCtx(srv, ctx, "/v1/explore?bench=crc32&validate=true")
	}()
	// Wait until the exploration actually holds worker tokens, then
	// pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for srv.budget.InUse() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("exploration never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	var rec *httptest.ResponseRecorder
	select {
	case rec = <-exploreDone:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled exploration did not return promptly")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned explore answered %d: %s", rec.Code, rec.Body.String())
	}
	if body := errBody(t, rec); body.Error.Code != "cancelled" {
		t.Fatalf("abandoned explore coded %q, want cancelled", body.Error.Code)
	}

	// The non-faulted path stays bit-identical to the direct harness
	// answer after the chaos.
	pred := serveCtx(srv, context.Background(), "/v1/predict?bench=crc32&validate=true")
	if pred.Code != http.StatusOK {
		t.Fatalf("predict after cancelled explore answered %d", pred.Code)
	}
	var got PredictResponse
	if err := json.NewDecoder(pred.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	pw := profiledDirect(t, "crc32")
	cfg, err := decodeConfig(httptest.NewRequest("GET", "/v1/predict?bench=crc32", nil).URL.Query())
	if err != nil {
		t.Fatal(err)
	}
	st, err := pw.PredictCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipeline.Simulate(pw.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model.CPI != st.CPI() || got.Model.Cycles != st.Total() {
		t.Errorf("post-chaos model = %v/%v, want %v/%v", got.Model.Cycles, got.Model.CPI, st.Total(), st.CPI())
	}
	if got.Sim == nil || got.Sim.Cycles != sim.Cycles || got.Sim.CPI != sim.CPI() {
		t.Errorf("post-chaos sim diverges: %+v, want cycles %d CPI %v", got.Sim, sim.Cycles, sim.CPI())
	}

	// Everything the cancelled fan-out started must unwind: no worker
	// tokens held, no admissions in flight, goroutines settle.
	deadline = time.Now().Add(10 * time.Second)
	for srv.budget.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled explore still holds %d worker tokens", srv.budget.InUse())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Pool().Stats(); st.InFlight != 0 {
		t.Fatalf("admissions still in flight after chaos: %+v", st)
	}
	if m := srv.MetricsSnapshot(); m.Lifecycle.Cancelled == 0 {
		t.Fatal("cancelled counter never moved")
	}
	settle(t, base, "client-disconnect chaos")
}
