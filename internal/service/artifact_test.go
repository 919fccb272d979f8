package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
)

// fetchBody returns a response body as a string, failing on non-200.
func fetchBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestWarmStartServesFromDiskBitIdentically is the service half of the
// acceptance criteria: a second server booting on a populated artifact
// dir performs zero profiling (counter-pinned) and its /v1/predict
// responses are byte-identical to the fresh server's.
func TestWarmStartServesFromDiskBitIdentically(t *testing.T) {
	dir := t.TempDir()
	const query = "/v1/predict?bench=crc32&width=2&stages=7&l2kb=256&pred=hybrid&validate=true"

	cold := mustNew(t, Config{ArtifactDir: dir})
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	coldBody := fetchBody(t, tsCold.URL+query)
	if n := cold.Pool().Stats().Profiles; n != 1 {
		t.Fatalf("cold server ran %d profiles, want 1", n)
	}

	warm := mustNew(t, Config{ArtifactDir: dir})
	loaded, err := warm.WarmStart()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("WarmStart rehydrated %d workloads, want 1", loaded)
	}
	tsWarm := httptest.NewServer(warm.Handler())
	defer tsWarm.Close()
	warmBody := fetchBody(t, tsWarm.URL+query)
	if n := warm.Pool().Stats().Profiles; n != 0 {
		t.Fatalf("warm server ran %d profiles, want 0", n)
	}
	if warm.Pool().Stats().DiskHits != 1 {
		t.Fatalf("warm server disk hits = %d, want 1", warm.Pool().Stats().DiskHits)
	}
	if coldBody != warmBody {
		t.Fatalf("from-disk prediction differs from fresh:\n cold: %s\n warm: %s", coldBody, warmBody)
	}

	// Warm-start respects the MaxWorkloads bound.
	bounded := mustNew(t, Config{ArtifactDir: dir, MaxWorkloads: 1})
	if n, err := bounded.WarmStart(); err != nil || n > 1 {
		t.Fatalf("bounded WarmStart = %d, %v; want <= 1 rehydrations and no error", n, err)
	}
}

// TestArtifactsEndpoint pins the listing + residency surface.
func TestArtifactsEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, Config{ArtifactDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var empty ArtifactsResponse
	getJSON(t, ts.URL+"/v1/artifacts", &empty)
	if !empty.Enabled || empty.Dir != dir || len(empty.Entries) != 0 {
		t.Fatalf("empty store listing = %+v", empty)
	}

	resp, err := http.Get(ts.URL + "/v1/predict?bench=crc32&validate=true")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var got ArtifactsResponse
	getJSON(t, ts.URL+"/v1/artifacts", &got)
	if got.FormatVersion != artifact.FormatVersion {
		t.Fatalf("format version %d, want %d", got.FormatVersion, artifact.FormatVersion)
	}
	// A validated predict writes the workload plus one mem plane and
	// one branch plane through to disk.
	kinds := map[string]int{}
	for _, e := range got.Entries {
		kinds[e.Kind]++
	}
	if kinds["workload"] != 1 || kinds["mem-plane"] != 1 || kinds["branch-plane"] != 1 {
		t.Fatalf("store kinds after validated predict = %v, want one of each", kinds)
	}
	found := false
	for _, w := range got.Workloads {
		if w.Name == "crc32" {
			found = true
			if !w.Stored || !w.Resident || w.Key == "" {
				t.Fatalf("crc32 residency row = %+v, want stored+resident", w)
			}
		} else if w.Stored || w.Resident {
			t.Fatalf("%s claims artifacts without being requested: %+v", w.Name, w)
		}
	}
	if !found {
		t.Fatal("crc32 missing from artifact residency rows")
	}

	// Without a store the endpoint reports disabled rather than erroring.
	plain := newTestServer(t, Config{})
	var off ArtifactsResponse
	getJSON(t, plain.URL+"/v1/artifacts", &off)
	if off.Enabled || off.Dir != "" {
		t.Fatalf("store-less listing = %+v, want disabled", off)
	}
}

// TestCorruptArtifactsRecomputeWithoutFaults pins that a damaged
// artifact is an answer, not a disk fault. Every stored file — the
// workload, its mem plane and its branch planes — gets a flipped byte
// that only a section codec's checksums can catch. A server booting on
// that store must recompute and answer byte-identically, and the store
// guard must neither retry nor trip.
func TestCorruptArtifactsRecomputeWithoutFaults(t *testing.T) {
	dir := t.TempDir()
	const query = "/v1/explore?bench=crc32&width=2&stages=7&l2kb=256&l2ways=8&validate=true"

	cold := mustNew(t, Config{ArtifactDir: dir})
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	coldBody := fetchBody(t, tsCold.URL+query)

	store, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range entries {
		kinds[e.Kind]++
		// The middle byte lies in the file's largest section: trace
		// chunks, plane bytes or plane words.
		path := filepath.Join(dir, e.Key+artifact.Ext)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if kinds["workload"] != 1 || kinds["mem-plane"] != 1 || kinds["branch-plane"] != 2 {
		t.Fatalf("stored kinds = %v, want one workload, one mem plane and two branch planes", kinds)
	}

	srv := mustNew(t, Config{ArtifactDir: dir})
	srv.guard.tripAfter = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if body := fetchBody(t, ts.URL+query); body != coldBody {
		t.Fatalf("answer over a corrupt store differs from fresh:\n cold: %s\n got:  %s", coldBody, body)
	}
	if n := srv.Pool().Stats().Profiles; n != 1 {
		t.Fatalf("server over a corrupt store ran %d profiles, want 1", n)
	}
	m := srv.MetricsSnapshot()
	if m.Store.Retries != 0 || m.Store.Trips != 0 || m.Store.Degraded {
		t.Fatalf("corrupt artifacts were treated as disk faults: %+v", m.Store)
	}
}
