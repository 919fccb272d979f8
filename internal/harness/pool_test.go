package harness

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/uarch"
	"repro/internal/workloads"
)

func buildFor(t *testing.T, name string) func(context.Context) (*Profiled, error) {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func(context.Context) (*Profiled, error) { return ProfileProgram(spec.Build()) }
}

// TestPoolSingleflight pins the admission contract: any number of
// concurrent GetCtx calls for one absent benchmark run exactly one profiling
// execution, and everyone receives the same Profiled.
func TestPoolSingleflight(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkloads: 4})
	build := buildFor(t, "crc32")
	const callers = 16
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		got = make(map[*Profiled]int)
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pw, err := p.GetCtx(context.Background(), "crc32", build)
			if err != nil {
				t.Errorf("GetCtx: %v", err)
				return
			}
			mu.Lock()
			got[pw]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(got) != 1 {
		t.Fatalf("concurrent GetCtx calls observed %d distinct Profiled values, want 1", len(got))
	}
	if n := p.Stats().Profiles; n != 1 {
		t.Fatalf("Profiles = %d after %d concurrent GetCtx calls, want 1", n, callers)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("Stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
}

// TestPoolLRUEviction pins the residency bound: admitting past
// MaxWorkloads evicts the least recently used workload, and a
// re-request re-profiles it.
func TestPoolLRUEviction(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkloads: 2})
	for _, name := range []string{"crc32", "sha"} {
		if _, err := p.GetCtx(context.Background(), name, buildFor(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch crc32 so sha is the LRU entry.
	if _, err := p.GetCtx(context.Background(), "crc32", buildFor(t, "crc32")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetCtx(context.Background(), "dijkstra", buildFor(t, "dijkstra")); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Evictions != 1 || st.Resident != 2 {
		t.Fatalf("after third admission: %+v, want 1 eviction and 2 resident", st)
	}
	if p.Resident("sha") {
		t.Fatal("sha (LRU) still resident after eviction")
	}
	if !p.Resident("crc32") || !p.Resident("dijkstra") {
		t.Fatal("recently used workloads were evicted")
	}
	// Re-requesting the evicted workload profiles again.
	before := p.Stats().Profiles
	if _, err := p.GetCtx(context.Background(), "sha", buildFor(t, "sha")); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Profiles; got != before+1 {
		t.Fatalf("Profiles after re-request = %d, want %d", got, before+1)
	}
}

// TestPoolConcurrentColdAdmissionsReconverge pins that the bound is
// re-enforced at completion: concurrent cold misses for distinct
// benchmarks can transiently exceed MaxWorkloads (nothing is evictable
// while every entry is in flight), but once the admissions complete
// the pool must be back at the bound — not stuck over it until the
// next cold miss.
func TestPoolConcurrentColdAdmissionsReconverge(t *testing.T) {
	p := NewPool(PoolOptions{MaxWorkloads: 1})
	names := []string{"crc32", "sha", "dijkstra", "patricia"}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := p.GetCtx(context.Background(), name, buildFor(t, name)); err != nil {
				t.Error(err)
			}
		}(name)
	}
	wg.Wait()
	st := p.Stats()
	if st.Resident > 1 || st.InFlight != 0 {
		t.Fatalf("after all admissions completed: %+v, want ≤1 resident", st)
	}
	if st.Evictions < int64(len(names)-1) {
		t.Fatalf("evictions = %d, want ≥ %d", st.Evictions, len(names)-1)
	}
}

// TestPoolFailedAdmissionRetries pins the error path: a failed
// profiling run is not cached, and the next GetCtx retries.
func TestPoolFailedAdmissionRetries(t *testing.T) {
	p := NewPool(PoolOptions{})
	boom := errors.New("boom")
	if _, err := p.GetCtx(context.Background(), "x", func(context.Context) (*Profiled, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first GetCtx error = %v, want boom", err)
	}
	pw, err := p.GetCtx(context.Background(), "x", buildFor(t, "crc32"))
	if err != nil || pw == nil {
		t.Fatalf("retry GetCtx = %v, %v; want success", pw, err)
	}
	if n := p.Stats().Profiles; n != 2 {
		t.Fatalf("Profiles = %d, want 2 (failure plus retry)", n)
	}
}

// TestPoolPanickingProfileDoesNotWedge pins the panic path: a profile
// func that panics must resolve the singleflight entry as a failed
// admission (returned as an error), so the next GetCtx retries instead of
// blocking forever on a never-closed done channel.
func TestPoolPanickingProfileDoesNotWedge(t *testing.T) {
	p := NewPool(PoolOptions{})
	_, err := p.GetCtx(context.Background(), "x", func(context.Context) (*Profiled, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking profile returned %v, want a panicked error", err)
	}
	pw, err := p.GetCtx(context.Background(), "x", buildFor(t, "crc32"))
	if err != nil || pw == nil {
		t.Fatalf("GetCtx after panic = %v, %v; want a successful retry", pw, err)
	}
}

// TestPoolPlaneBudgetSlices pins the byte-budget wiring: each admitted
// workload's annotation store receives MaxPlaneBytes/MaxWorkloads, so
// the resident total stays under the global budget no matter how many
// design points are served.
func TestPoolPlaneBudgetSlices(t *testing.T) {
	// A budget far below one plane's size forces eviction on every
	// design point — the worst case for residency, exercised on real
	// requests below.
	const budget = 128 << 10
	p := NewPool(PoolOptions{MaxWorkloads: 2, MaxPlaneBytes: budget})
	pw, err := p.GetCtx(context.Background(), "crc32", buildFor(t, "crc32"))
	if err != nil {
		t.Fatal(err)
	}
	base := uarch.Default()
	for _, kb := range []int{128, 256, 512, 1024} {
		for _, ways := range []int{8, 16} {
			if _, err := simulateOne(pw, base.WithL2(kb, ways)); err != nil {
				t.Fatal(err)
			}
			if got := pw.Counters().Bytes; got > budget/2 {
				t.Fatalf("workload annot bytes %d exceed slice %d", got, budget/2)
			}
		}
	}
	if st := p.Stats(); st.PlaneBytes > budget {
		t.Fatalf("pool plane bytes %d exceed budget %d", st.PlaneBytes, budget)
	}
	if pw.Counters().Evictions == 0 {
		t.Fatal("expected the byte budget to evict at least one entry")
	}
}
