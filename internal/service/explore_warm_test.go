package service

import (
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/harness"
)

// mmapPlatform reports whether artifact loads go through the mapped
// path on this build (the !unix fallback always decodes).
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
	if n := cold.Pool().ProfileCount(); n != 1 {
		t.Fatalf("cold server ran %d profiles, want 1", n)
	}

	warm := mustNew(t, Config{ArtifactDir: dir})
	if _, err := warm.WarmStart(); err != nil {
		t.Fatal(err)
	}
	tsWarm := httptest.NewServer(warm.Handler())
	defer tsWarm.Close()

	cacheBefore := harness.CacheAnnotationCount()
	branchBefore := harness.BranchAnnotationCount()
	mappedBefore := artifact.MappedLoadCount()
	warmBody := fetchBody(t, tsWarm.URL+query)
	if n := warm.Pool().ProfileCount(); n != 0 {
		t.Fatalf("warm server ran %d profiles, want 0", n)
	}
	if d := harness.CacheAnnotationCount() - cacheBefore; d != 0 {
		t.Fatalf("warm explore ran %d cache annotation traversals, want 0", d)
	}
	if d := harness.BranchAnnotationCount() - branchBefore; d != 0 {
		t.Fatalf("warm explore ran %d branch annotation traversals, want 0", d)
	}
	if mmapPlatform() {
		// One mem plane and two branch planes rehydrate from disk; all
		// three must come through the mapped path.
		if d := artifact.MappedLoadCount() - mappedBefore; d < 3 {
			t.Fatalf("warm explore served %d mapped loads, want >= 3", d)
		}
	}
	if coldBody != warmBody {
		t.Fatalf("warm exploration differs from fresh:\n cold: %s\n warm: %s", coldBody, warmBody)
	}
}
