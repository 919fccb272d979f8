package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
)

// Adversarial ingestion suite: every hostile shape a tenant can throw
// at POST /v1/workloads must come back as a machine-readable taxonomy
// error, with the server still healthy, counters pinned, and no
// goroutines leaked. The well-behaved path must produce a workload
// indistinguishable from a built-in.

const (
	ingGood = ".mem 64\nmain:\n li r1, 0\n li r2, 200\n li r3, 0\nloop:\n add r3, r3, r1\n addi r1, r1, 1\n blt r1, r2, loop\nend:\n st r3, 0x10(r0)\n halt\n"
	// ingGood2 differs in one immediate: a distinct fingerprint.
	ingGood2 = ".mem 64\nmain:\n li r1, 0\n li r2, 100\n li r3, 0\nloop:\n add r3, r3, r1\n addi r1, r1, 1\n blt r1, r2, loop\nend:\n st r3, 0x10(r0)\n halt\n"
	ingSpin  = ".mem 8\nmain:\n li r1, 0\nloop:\n addi r1, r1, 1\n jmp loop\n"
	ingOOB   = ".mem 8\nmain:\n li r1, 7\n st r1, 4096(r0)\n halt\n"
)

// postCtx drives one POST through the full handler chain.
func postCtx(srv *Server, ctx context.Context, url, body, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", url, strings.NewReader(body)).WithContext(ctx)
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

func submit(t *testing.T, srv *Server, body, tenant string, wantStatus int) IngestResponse {
	t.Helper()
	rec := postCtx(srv, context.Background(), "/v1/workloads", body, tenant)
	if rec.Code != wantStatus {
		t.Fatalf("submission answered %d (%s), want %d", rec.Code, rec.Body.String(), wantStatus)
	}
	var resp IngestResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding ingest response: %v", err)
	}
	return resp
}

// TestIngestEndToEnd: the well-behaved path. Submit, predict by the
// returned name, re-submit as a different tenant (shared content, no
// second profiling run), and see it listed beside the built-ins.
func TestIngestEndToEnd(t *testing.T) {
	srv := mustNew(t, Config{})
	resp := submit(t, srv, ingGood, "team-a", http.StatusCreated)
	if !strings.HasPrefix(resp.Name, "user-") || !resp.Created || !resp.Resident {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if resp.Instructions == 0 {
		t.Fatal("accepted workload profiled zero instructions")
	}

	rec := serveCtx(srv, context.Background(), "/v1/predict?bench="+resp.Name+"&validate=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("predict on ingested workload answered %d: %s", rec.Code, rec.Body.String())
	}

	// Identical content from another tenant: duplicate, one profile.
	dup := submit(t, srv, ingGood, "team-b", http.StatusOK)
	if dup.Created || dup.Name != resp.Name || dup.Fingerprint != resp.Fingerprint {
		t.Fatalf("duplicate submission diverged: %+v vs %+v", dup, resp)
	}
	if n := srv.Pool().Stats().Profiles; n != 1 {
		t.Fatalf("profiling runs = %d, want 1 (content shared across tenants)", n)
	}

	// Listed with the user domain.
	recW := serveCtx(srv, context.Background(), "/v1/workloads")
	var list struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}
	if err := json.NewDecoder(recW.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, wl := range list.Workloads {
		if wl.Name == resp.Name {
			found = wl.Domain == IngestedDomain && wl.Resident
		}
	}
	if !found {
		t.Fatalf("ingested workload missing or mislabeled in %+v", list.Workloads)
	}

	m := srv.MetricsSnapshot()
	if m.Ingest.Submitted != 2 || m.Ingest.Accepted != 2 || m.Ingest.Created != 1 || m.Ingest.Rejected != 0 {
		t.Fatalf("ingest counters = %+v", m.Ingest)
	}
	if m.Ingest.Quota.Tenants != 2 || m.Ingest.Quota.StoredWorkloads != 2 {
		t.Fatalf("quota stats = %+v, want both tenants billed once each", m.Ingest.Quota)
	}
}

// TestIngestHostileShapes: each adversarial payload yields its typed
// rejection; the server stays healthy throughout; nothing leaks.
func TestIngestHostileShapes(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := mustNew(t, Config{
		Ingest: ingest.Limits{
			MaxDynInsts: 50_000,
			MaxRunTime:  2 * time.Second,
		},
	})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"infinite loop", ingSpin, http.StatusUnprocessableEntity, "budget_exceeded"},
		{"oob store", ingOOB, http.StatusUnprocessableEntity, "execution_failed"},
		{"garbage", "not assembly at all", http.StatusBadRequest, "invalid_program"},
		{"empty body", "", http.StatusBadRequest, "invalid_program"},
		{"memory bomb", ".mem 1099511627776\nmain:\n halt\n", http.StatusBadRequest, "invalid_program"},
		{"block bomb", strings.Repeat("a:\n halt\n", 5000), http.StatusBadRequest, "invalid_program"},
		{"runs off the end", ".mem 8\nmain:\n li r1, 1\n", http.StatusUnprocessableEntity, "execution_failed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := postCtx(srv, context.Background(), "/v1/workloads", c.body, "")
			if rec.Code != c.wantStatus {
				t.Fatalf("answered %d (%s), want %d", rec.Code, rec.Body.String(), c.wantStatus)
			}
			if body := errBody(t, rec); body.Error.Code != c.wantCode {
				t.Fatalf("code %q, want %q", body.Error.Code, c.wantCode)
			}
			// The server must remain fully healthy after every attack.
			if rec := serveCtx(srv, context.Background(), "/healthz"); rec.Code != http.StatusOK {
				t.Fatalf("healthz answered %d after attack", rec.Code)
			}
		})
	}
	m := srv.MetricsSnapshot()
	if m.Ingest.Rejected != int64(len(cases)) || m.Ingest.Accepted != 0 {
		t.Fatalf("rejected = %d accepted = %d, want %d/0", m.Ingest.Rejected, m.Ingest.Accepted, len(cases))
	}
	// Failed submissions must not consume storage quota.
	if m.Ingest.Quota.StoredWorkloads != 0 || m.Ingest.Quota.StoredBytes != 0 {
		t.Fatalf("failed submissions left quota charges: %+v", m.Ingest.Quota)
	}
	if m.Lifecycle.PanicsRecovered != 0 {
		t.Fatalf("attacks caused %d handler panics", m.Lifecycle.PanicsRecovered)
	}
	settle(t, base, "hostile ingestion")
}

// TestIngestOversizedBodies: both walls answer 413 payload_too_large —
// the coarse transport cap (MaxBytesReader) and the precise
// source-byte limit behind it.
func TestIngestOversizedBodies(t *testing.T) {
	srv := mustNew(t, Config{
		MaxBodyBytes: 4 << 10,
		Ingest:       ingest.Limits{MaxSourceBytes: 1 << 10},
	})
	t.Run("transport cap", func(t *testing.T) {
		rec := postCtx(srv, context.Background(), "/v1/workloads", strings.Repeat("x", 64<<10), "")
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("answered %d, want 413", rec.Code)
		}
		if body := errBody(t, rec); body.Error.Code != "payload_too_large" {
			t.Fatalf("code %q, want payload_too_large", body.Error.Code)
		}
	})
	t.Run("source cap", func(t *testing.T) {
		// Fits the transport cap, exceeds the source cap.
		rec := postCtx(srv, context.Background(), "/v1/workloads", strings.Repeat(";\n", 1<<10), "")
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("answered %d, want 413", rec.Code)
		}
		if body := errBody(t, rec); body.Error.Code != "payload_too_large" {
			t.Fatalf("code %q, want payload_too_large", body.Error.Code)
		}
	})
}

// TestIngestQuotaExhaustion: a tenant at its workload cap gets 429
// quota_exceeded; other tenants are untouched; rejections are counted.
func TestIngestQuotaExhaustion(t *testing.T) {
	srv := mustNew(t, Config{Quota: ingest.QuotaConfig{MaxWorkloads: 1}})
	submit(t, srv, ingGood, "hog", http.StatusCreated)

	rec := postCtx(srv, context.Background(), "/v1/workloads", ingGood2, "hog")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission answered %d (%s), want 429", rec.Code, rec.Body.String())
	}
	if body := errBody(t, rec); body.Error.Code != "quota_exceeded" {
		t.Fatalf("code %q, want quota_exceeded", body.Error.Code)
	}

	// The neighbor is unaffected.
	submit(t, srv, ingGood2, "polite", http.StatusCreated)

	m := srv.MetricsSnapshot()
	if m.Ingest.Quota.Rejections == 0 {
		t.Fatal("quota rejection not counted")
	}
	// The hog re-submitting content it already holds stays free (idempotent).
	submit(t, srv, ingGood, "hog", http.StatusOK)
}

// TestIngestBudgetFailureRefundsQuota: a submission that dies in the
// sandbox must not eat the tenant's storage quota.
func TestIngestBudgetFailureRefundsQuota(t *testing.T) {
	srv := mustNew(t, Config{
		Ingest: ingest.Limits{MaxDynInsts: 10_000},
		Quota:  ingest.QuotaConfig{MaxWorkloads: 1},
	})
	rec := postCtx(srv, context.Background(), "/v1/workloads", ingSpin, "t1")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("spin answered %d, want 422", rec.Code)
	}
	// The single workload slot must still be free.
	submit(t, srv, ingGood, "t1", http.StatusCreated)
}

// TestIngestConcurrentDuplicates: N racing submissions of one program
// singleflight onto one profiling run, one registration, one charge.
func TestIngestConcurrentDuplicates(t *testing.T) {
	srv := mustNew(t, Config{Quota: ingest.QuotaConfig{MaxInFlight: 64}})
	const n = 16
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postCtx(srv, context.Background(), "/v1/workloads", ingGood, "racer")
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	created, dup := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusCreated:
			created++
		case http.StatusOK:
			dup++
		default:
			t.Fatalf("racing submission answered %d", c)
		}
	}
	if created != 1 || dup != n-1 {
		t.Fatalf("created=%d dup=%d, want 1/%d", created, dup, n-1)
	}
	if pc := srv.Pool().Stats().Profiles; pc != 1 {
		t.Fatalf("profiling runs = %d, want 1", pc)
	}
	m := srv.MetricsSnapshot()
	if m.Ingest.Registered != 1 {
		t.Fatalf("registered = %d, want 1", m.Ingest.Registered)
	}
	if m.Ingest.Quota.StoredWorkloads != 1 {
		t.Fatalf("quota charges = %d, want 1", m.Ingest.Quota.StoredWorkloads)
	}
}

// TestIngestInFlightQuota: a tenant's concurrent submissions beyond
// MaxInFlight are rejected while a slow job holds the slot.
func TestIngestInFlightQuota(t *testing.T) {
	srv := mustNew(t, Config{
		Ingest: ingest.Limits{MaxDynInsts: 1 << 30, MaxRunTime: 10 * time.Second},
		Quota:  ingest.QuotaConfig{MaxInFlight: 1},
	})
	// Big-but-finite loop: holds the in-flight slot long enough to race.
	slow := ".mem 8\nmain:\n li r1, 0\n li r2, 50000000\nloop:\n addi r1, r1, 1\n blt r1, r2, loop\n halt\n"
	started := make(chan struct{})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		close(started)
		done <- postCtx(srv, context.Background(), "/v1/workloads", slow, "busy")
	}()
	<-started
	// Poll until the slot is observably held, then expect rejection.
	deadline := time.Now().Add(5 * time.Second)
	var rec *httptest.ResponseRecorder
	for {
		rec = postCtx(srv, context.Background(), "/v1/workloads", ingGood, "busy")
		if rec.Code == http.StatusTooManyRequests || time.Now().After(deadline) {
			break
		}
		if rec.Code == http.StatusCreated || rec.Code == http.StatusOK {
			// Raced ahead of the slow job; the slow one will hold next.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.Fatalf("unexpected status %d (%s)", rec.Code, rec.Body.String())
	}
	if rec.Code == http.StatusTooManyRequests {
		if body := errBody(t, rec); body.Error.Code != "quota_exceeded" {
			t.Fatalf("code %q, want quota_exceeded", body.Error.Code)
		}
	}
	<-done
}

// TestIngestWarmRestart: a restarted server serves a previously
// ingested workload byte-identically with zero profiling runs — the
// registry restores the name, the artifact store restores the trace.
func TestIngestWarmRestart(t *testing.T) {
	dir := t.TempDir()

	srv1 := mustNew(t, Config{ArtifactDir: dir})
	resp := submit(t, srv1, ingGood, "team-a", http.StatusCreated)
	if !resp.Stored {
		t.Fatal("submission not persisted despite a configured artifact dir")
	}
	rec1 := serveCtx(srv1, context.Background(), "/v1/predict?bench="+resp.Name+"&validate=true")
	if rec1.Code != http.StatusOK {
		t.Fatalf("predict answered %d", rec1.Code)
	}

	// "Restart": a fresh server over the same directory.
	srv2 := mustNew(t, Config{ArtifactDir: dir})
	if n, err := srv2.WarmStart(); err != nil || n != 1 {
		t.Fatalf("warm start rehydrated %d workloads (err %v), want 1", n, err)
	}
	rec2 := serveCtx(srv2, context.Background(), "/v1/predict?bench="+resp.Name+"&validate=true")
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm predict answered %d (%s)", rec2.Code, rec2.Body.String())
	}
	if rec1.Body.String() != rec2.Body.String() {
		t.Fatal("warm-restarted prediction is not byte-identical")
	}
	if pc := srv2.Pool().Stats().Profiles; pc != 0 {
		t.Fatalf("warm server executed %d profiling runs, want 0", pc)
	}
	if dh := srv2.Pool().Stats().DiskHits; dh != 1 {
		t.Fatalf("disk hits = %d, want 1", dh)
	}
	m := srv2.MetricsSnapshot()
	if m.Ingest.Registered != 1 || m.Ingest.RegistryLoadErrors != 0 {
		t.Fatalf("restarted registry state: %+v", m.Ingest)
	}
}

// TestIngestEvictionReprofilesUnderSandbox: without an artifact store,
// an evicted ingested workload re-profiles on demand from the registry
// — still inside the sandbox.
func TestIngestEvictionReprofilesUnderSandbox(t *testing.T) {
	srv := mustNew(t, Config{MaxWorkloads: 1})
	resp := submit(t, srv, ingGood, "", http.StatusCreated)
	// Evict it by admitting a different workload into the single slot.
	submit(t, srv, ingGood2, "", http.StatusCreated)
	rec := serveCtx(srv, context.Background(), "/v1/predict?bench="+resp.Name)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict after eviction answered %d (%s)", rec.Code, rec.Body.String())
	}
	if pc := srv.Pool().Stats().Profiles; pc != 3 {
		t.Fatalf("profiling runs = %d, want 3 (two admissions + one re-profile)", pc)
	}
}

// TestIngestDataRangeRejectionDeterministic: the same out-of-range
// submission gets a byte-identical error body every time, naming the
// lowest out-of-range data address.
func TestIngestDataRangeRejectionDeterministic(t *testing.T) {
	srv := mustNew(t, Config{})
	const body = ".mem 4\n.data 10 1 2 3 4 5 6 7 8\nmain:\n halt\n"
	var first string
	for i := range 50 {
		rec := postCtx(srv, context.Background(), "/v1/workloads", body, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("answered %d (%s), want 400", rec.Code, rec.Body.String())
		}
		if i == 0 {
			first = rec.Body.String()
			if !strings.Contains(first, "address 10 ") {
				t.Fatalf("body %s does not name the lowest out-of-range address, 10", first)
			}
		} else if got := rec.Body.String(); got != first {
			t.Fatalf("rejection %d differs:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}
