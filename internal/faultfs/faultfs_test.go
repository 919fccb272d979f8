package faultfs

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/program"
	"repro/internal/workloads"
)

func storeFor(t *testing.T) *artifact.Store {
	t.Helper()
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func profiled(t *testing.T) (*harness.Profiled, artifact.WorkloadID) {
	t.Helper()
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build()
	pw, err := harness.ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return pw, artifact.WorkloadID{Name: "crc32", Code: prog.Fingerprint()}
}

// TestTierTransparentWhenClear pins that the zero plan is a
// pass-through: a workload saved through the layer is stored under its
// plain key and loads back through it intact.
func TestTierTransparentWhenClear(t *testing.T) {
	store := storeFor(t)
	tier := &Tier{}
	store.Use(tier.Layer)
	pw, id := profiled(t)

	key, err := store.SaveWorkload(id, pw.Trace, pw.Prof)
	if err != nil {
		t.Fatalf("SaveWorkload through clear tier: %v", err)
	}
	if key != store.WorkloadKey(id) {
		t.Fatalf("key mismatch: saved under %q, store %q", key, store.WorkloadKey(id))
	}
	tr, _, err := store.LoadWorkload(id)
	if err != nil {
		t.Fatalf("LoadWorkload through clear tier: %v", err)
	}
	if tr.Len() != pw.Trace.Len() {
		t.Fatalf("round-trip trace length %d, want %d", tr.Len(), pw.Trace.Len())
	}
	if f := tier.Faults(); f != 0 {
		t.Fatalf("clear tier injected %d faults", f)
	}
}

// TestTierInjectsErrors pins selective injection: a load-only fault
// plan fails loads with the injected error, leaves saves untouched,
// and counts every hit.
func TestTierInjectsErrors(t *testing.T) {
	store := storeFor(t)
	tier := &Tier{}
	store.Use(tier.Layer)
	pw, id := profiled(t)
	boom := errors.New("disk on fire")

	tier.SetPlan(Plan{Err: boom, Ops: artifact.OpLoad})
	if _, err := store.SaveWorkload(id, pw.Trace, pw.Prof); err != nil {
		t.Fatalf("save under load-only fault plan: %v", err)
	}
	if _, _, err := store.LoadWorkload(id); !errors.Is(err, boom) {
		t.Fatalf("faulted load returned %v, want injected error", err)
	}
	if _, err := store.LoadBranchPlane("k", "p"); !errors.Is(err, boom) {
		t.Fatalf("faulted plane load returned %v, want injected error", err)
	}
	if f := tier.Faults(); f != 2 {
		t.Fatalf("Faults = %d, want 2", f)
	}

	tier.Clear()
	if _, _, err := store.LoadWorkload(id); err != nil {
		t.Fatalf("load after Clear: %v", err)
	}
}

// TestTierTransientPlanSelfClears pins the Remaining budget: a plan
// armed for N operations injects exactly N faults and then restores
// pass-through on its own.
func TestTierTransientPlanSelfClears(t *testing.T) {
	store := storeFor(t)
	tier := &Tier{}
	store.Use(tier.Layer)
	pw, id := profiled(t)
	if _, err := store.SaveWorkload(id, pw.Trace, pw.Prof); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("transient")
	tier.SetPlan(Plan{Err: boom, Remaining: 2})
	for i := 0; i < 2; i++ {
		if _, _, err := store.LoadWorkload(id); !errors.Is(err, boom) {
			t.Fatalf("fault %d returned %v, want injected error", i, err)
		}
	}
	if _, _, err := store.LoadWorkload(id); err != nil {
		t.Fatalf("load after transient plan exhausted: %v", err)
	}
	if f := tier.Faults(); f != 2 {
		t.Fatalf("Faults = %d, want exactly the armed 2", f)
	}
}

// TestTierDelays pins the slow-disk mode: a delay-only plan slows
// matched operations without failing them.
func TestTierDelays(t *testing.T) {
	store := storeFor(t)
	tier := &Tier{}
	store.Use(tier.Layer)
	pw, id := profiled(t)
	if _, err := store.SaveWorkload(id, pw.Trace, pw.Prof); err != nil {
		t.Fatal(err)
	}

	const d = 30 * time.Millisecond
	tier.SetPlan(Plan{Delay: d, Ops: artifact.OpLoad})
	start := time.Now()
	if _, _, err := store.LoadWorkload(id); err != nil {
		t.Fatalf("slow load failed: %v", err)
	}
	if took := time.Since(start); took < d {
		t.Fatalf("slow load took %v, want ≥ %v", took, d)
	}
	if s := tier.Slowed(); s != 1 {
		t.Fatalf("Slowed = %d, want 1", s)
	}
	if f := tier.Faults(); f != 0 {
		t.Fatalf("delay-only plan injected %d faults", f)
	}
}

// TestTierBehindPool pins the integration point: a pool whose store
// carries a fully faulted layer still serves requests compute-only — the
// injected errors are counted as disk errors, never surfaced to the
// caller — and the result is bit-identical to profiling without any
// store.
func TestTierBehindPool(t *testing.T) {
	store := storeFor(t)
	tier := &Tier{}
	store.Use(tier.Layer)
	boom := errors.New("no disk today")
	tier.SetPlan(Plan{Err: boom})

	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := harness.NewPool(harness.PoolOptions{Store: store})
	pw, err := p.GetBuiltCtx(context.Background(), "crc32", spec.Build, func(_ context.Context, prog *program.Program) (*harness.Profiled, error) {
		return harness.ProfileProgram(prog)
	})
	if err != nil {
		t.Fatalf("GetBuiltCtx over faulted tier: %v", err)
	}
	want, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	if pw.Trace.Len() != want.Trace.Len() {
		t.Fatalf("faulted-tier workload trace length %d, want %d", pw.Trace.Len(), want.Trace.Len())
	}
	if st := p.Stats(); st.DiskErrors == 0 {
		t.Fatalf("pool did not count the injected disk faults: %+v", st)
	}
	if tier.Faults() == 0 {
		t.Fatal("tier observed no faults")
	}
}
