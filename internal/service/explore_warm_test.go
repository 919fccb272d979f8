package service

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/harness"
)

// mmapPlatform reports whether artifact loads map the file on this
// build (elsewhere they read it into memory).
func mmapPlatform() bool {
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly":
		return true
	}
	return false
}

// TestWarmExploreServesFromMappedArtifacts is the exploration half of
// the warm-start acceptance criteria: a warm server answering a
// validated /v1/explore runs zero profiling and zero annotation
// traversals — every plane rehydrates from the artifact store, through
// the memory-mapped read path where the platform supports it — and the
// response is byte-identical to the fresh server's.
func TestWarmExploreServesFromMappedArtifacts(t *testing.T) {
	dir := t.TempDir()
	// width/stages/l2 pinned, predictor free: two design points that
	// share one mem plane and split across both branch planes.
	const query = "/v1/explore?bench=crc32&width=2&stages=7&l2kb=256&l2ways=8&validate=true"

	cold := mustNew(t, Config{ArtifactDir: dir})
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	coldBody := fetchBody(t, tsCold.URL+query)
	if n := cold.Pool().Stats().Profiles; n != 1 {
		t.Fatalf("cold server ran %d profiles, want 1", n)
	}

	warm := mustNew(t, Config{ArtifactDir: dir})
	if _, err := warm.WarmStart(); err != nil {
		t.Fatal(err)
	}
	tsWarm := httptest.NewServer(warm.Handler())
	defer tsWarm.Close()

	// The warm-started workload the request is served from.
	pw, err := resident(warm, "crc32")
	if err != nil {
		t.Fatal(err)
	}
	mappedBefore := warm.store.MappedLoadCount()
	warmBody := fetchBody(t, tsWarm.URL+query)
	if n := warm.Pool().Stats().Profiles; n != 0 {
		t.Fatalf("warm server ran %d profiles, want 0", n)
	}
	if served, err := resident(warm, "crc32"); err != nil || served != pw {
		t.Fatalf("warm explore was not served from the warm-started workload (%v)", err)
	}
	if d := pw.Counters().CacheAnnotations; d != 0 {
		t.Fatalf("warm explore ran %d cache annotation traversals, want 0", d)
	}
	if d := pw.Counters().BranchAnnotations; d != 0 {
		t.Fatalf("warm explore ran %d branch annotation traversals, want 0", d)
	}
	if mmapPlatform() {
		// One mem plane and two branch planes rehydrate from disk; all
		// three must come through the mapped path.
		if d := warm.store.MappedLoadCount() - mappedBefore; d < 3 {
			t.Fatalf("warm explore served %d mapped loads, want >= 3", d)
		}
	}
	if coldBody != warmBody {
		t.Fatalf("warm exploration differs from fresh:\n cold: %s\n warm: %s", coldBody, warmBody)
	}
}

// resident returns the workload srv serves name from, admitting it
// first if it is not resident.
func resident(srv *Server, name string) (*harness.Profiled, error) {
	sv, err := srv.lookup(name)
	if err != nil {
		return nil, err
	}
	return srv.admit(context.Background(), sv)
}
