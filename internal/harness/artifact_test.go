package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func openTestStore(t *testing.T) *artifact.Store {
	t.Helper()
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// table2Subset returns a handful of Table 2 design points spanning
// distinct hierarchies, predictors and timing parameters.
func table2Subset(t *testing.T) []uarch.Config {
	t.Helper()
	var out []uarch.Config
	for _, pt := range []struct {
		w, st, kb, ways int
		pred            string
	}{
		{4, 9, 512, 8, "gshare"},
		{2, 5, 128, 8, "hybrid"},
		{1, 7, 1024, 16, "gshare"},
		{3, 9, 256, 16, "hybrid"},
	} {
		cfg, err := uarch.Table2Config(uarch.Default(), pt.w, pt.st, pt.kb, pt.ways, pt.pred)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cfg)
	}
	return out
}

// TestPoolDiskTierWriteThroughAndWarm pins the write-through contract:
// a cold pool profiles once and installs the artifact; a second pool
// over the same directory (modeling a restarted process) admits the
// workload with zero profiling runs, and every prediction and detailed
// simulation is bit-identical to the cold pool's.
// getBuilt admits name through the pool's disk tier with the standard
// builder and profiler.
func getBuilt(t *testing.T, p *Pool, name string) (*Profiled, error) {
	t.Helper()
	spec := mustSpec(t, name)
	return p.GetBuiltCtx(context.Background(), name, spec.Build, func(_ context.Context, prog *program.Program) (*Profiled, error) {
		return ProfileProgram(prog)
	})
}

func TestPoolDiskTierWriteThroughAndWarm(t *testing.T) {
	store := openTestStore(t)
	cold := NewPool(PoolOptions{Store: store})
	pwCold, err := getBuilt(t, cold, "sha")
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.Profiles != 1 || st.DiskHits != 0 || st.DiskWrites != 1 || st.DiskErrors != 0 {
		t.Fatalf("cold pool stats = %+v, want 1 profile, 0 disk hits, 1 disk write", st)
	}
	if pwCold.ArtifactKey() == "" {
		t.Fatal("cold admission did not attach the artifact store")
	}

	warm := NewPool(PoolOptions{Store: store})
	pwWarm, err := warm.GetBuiltCtx(context.Background(), "sha", mustSpec(t, "sha").Build, func(_ context.Context, prog *program.Program) (*Profiled, error) {
		t.Error("warm pool ran the profile func despite a valid artifact")
		return ProfileProgram(prog)
	})
	if err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if st.Profiles != 0 || st.DiskHits != 1 {
		t.Fatalf("warm pool stats = %+v, want 0 profiles, 1 disk hit", st)
	}
	if warm.Stats().Profiles != 0 {
		t.Fatalf("warm Profiles = %d, want 0", warm.Stats().Profiles)
	}

	for _, cfg := range table2Subset(t) {
		mc, err := pwCold.PredictCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := pwWarm.PredictCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *mc != *mw {
			t.Fatalf("%s: model prediction differs between fresh and rehydrated workload", cfg)
		}
		sc, err := simulateOne(pwCold, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := simulateOne(pwWarm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sc != sw {
			t.Fatalf("%s: detailed simulation differs between fresh and rehydrated workload:\n fresh %+v\n disk  %+v", cfg, sc, sw)
		}
	}
}

func mustSpec(t *testing.T, name string) workloads.Spec {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestPoolDiskTierFallsBackOnCorruptArtifact pins the safety contract:
// an unusable artifact is never served — the pool profiles fresh,
// counts the disk error, and overwrites the bad file so the next
// process is warm again.
func TestPoolDiskTierFallsBackOnCorruptArtifact(t *testing.T) {
	store := openTestStore(t)
	cold := NewPool(PoolOptions{Store: store})
	pwCold, err := getBuilt(t, cold, "crc32")
	if err != nil {
		t.Fatal(err)
	}
	key := pwCold.ArtifactKey()
	path := filepath.Join(store.Dir(), key+artifact.Ext)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	p := NewPool(PoolOptions{Store: store})
	pw, err := getBuilt(t, p, "crc32")
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Profiles != 1 || st.DiskHits != 0 || st.DiskErrors != 1 || st.DiskWrites != 1 {
		t.Fatalf("stats after corrupt artifact = %+v, want 1 profile, 0 disk hits, 1 disk error, 1 rewrite", st)
	}
	if pw.Trace.Len() != pwCold.Trace.Len() || *pw.Prof != *pwCold.Prof {
		t.Fatal("fallback profiling produced a different workload")
	}

	// The rewrite healed the store: a third pool is warm again.
	healed := NewPool(PoolOptions{Store: store})
	if _, err := healed.GetBuiltCtx(context.Background(), "crc32", mustSpec(t, "crc32").Build, func(context.Context, *program.Program) (*Profiled, error) {
		t.Error("healed store still triggered profiling")
		return nil, errors.New("unreachable")
	}); err != nil {
		t.Fatal(err)
	}
	if healed.Stats().Profiles != 0 {
		t.Fatalf("healed Profiles = %d, want 0", healed.Stats().Profiles)
	}
}

// TestPoolDiskTierKeyedByDynInsts pins that differently scaled traces
// never collide on disk: a pool with a dyninsts floor ignores the
// unscaled artifact and writes its own.
func TestPoolDiskTierKeyedByDynInsts(t *testing.T) {
	store := openTestStore(t)
	p0 := NewPool(PoolOptions{Store: store})
	pw0, err := getBuilt(t, p0, "crc32")
	if err != nil {
		t.Fatal(err)
	}
	minDyn := 4 * pw0.Trace.Len()
	spec := mustSpec(t, "crc32")
	p1 := NewPool(PoolOptions{Store: store, MinDynInsts: minDyn})
	pw1, err := p1.GetBuiltCtx(context.Background(), "crc32", spec.Build, func(_ context.Context, prog *program.Program) (*Profiled, error) {
		return ProfileProgramScaledCtx(context.Background(), prog, minDyn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := p1.Stats(); st.DiskHits != 0 || st.Profiles != 1 {
		t.Fatalf("scaled pool stats = %+v, want a fresh profile (different artifact key)", st)
	}
	if pw1.Trace.Len() < minDyn {
		t.Fatalf("scaled trace has %d instructions, want >= %d", pw1.Trace.Len(), minDyn)
	}
	// And a second scaled pool hits the scaled artifact.
	p2 := NewPool(PoolOptions{Store: store, MinDynInsts: minDyn})
	pw2, err := p2.GetBuiltCtx(context.Background(), "crc32", spec.Build, func(context.Context, *program.Program) (*Profiled, error) {
		t.Error("scaled artifact should have been served from disk")
		return nil, errors.New("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	if pw2.Trace.Len() != pw1.Trace.Len() {
		t.Fatal("rehydrated scaled trace differs in length")
	}
}

// TestPoolDiskTierKeyedByProgramCode pins the stale-artifact guard: a
// workload whose built IR changed must miss the old artifact (the
// identity embeds the program's content fingerprint) and reprofile,
// never rehydrate the pre-change trace.
func TestPoolDiskTierKeyedByProgramCode(t *testing.T) {
	store := openTestStore(t)
	p0 := NewPool(PoolOptions{Store: store})
	if _, err := getBuilt(t, p0, "crc32"); err != nil {
		t.Fatal(err)
	}

	spec := mustSpec(t, "crc32")
	edited := func() *program.Program {
		prog := spec.Build()
		// Model a kernel edit: perturb one initialized data word.
		if runs := prog.Data.Runs(); len(runs) == 0 {
			prog.SetData(0, 1)
		} else {
			prog.SetData(runs[0].Base, runs[0].Vals[0]+1)
		}
		return prog
	}
	if a, b := spec.Build().Fingerprint(), edited().Fingerprint(); a == b {
		t.Fatal("edited program fingerprint did not change")
	}
	p1 := NewPool(PoolOptions{Store: store})
	if _, err := p1.GetBuiltCtx(context.Background(), "crc32", edited, func(_ context.Context, prog *program.Program) (*Profiled, error) {
		return ProfileProgram(prog)
	}); err != nil {
		t.Fatal(err)
	}
	if st := p1.Stats(); st.DiskHits != 0 || st.Profiles != 1 {
		t.Fatalf("edited-workload stats = %+v, want a fresh profile, zero disk hits", st)
	}
}

// TestPlaneDiskTier pins the annotation-plane disk tier: a workload
// rehydrated by a second "process" loads planes from the store instead
// of annotating (counter-pinned), with bit-identical timing results.
func TestPlaneDiskTier(t *testing.T) {
	store := openTestStore(t)
	cfgs := table2Subset(t)

	pwCold, _, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
	if err != nil {
		t.Fatal(err)
	}
	if err := pwCold.EnsureAnnotatedCtx(context.Background(), cfgs, 2); err != nil {
		t.Fatal(err)
	}
	if c := pwCold.Counters(); c.CacheAnnotations == 0 || c.BranchAnnotations == 0 {
		t.Fatalf("cold run annotated %d hierarchies, %d predictors; want > 0 each", c.CacheAnnotations, c.BranchAnnotations)
	}
	coldRes := make([]pipeline.Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := simulateOne(pwCold, cfg)
		if err != nil {
			t.Fatal(err)
		}
		coldRes[i] = r
	}

	// Second process: workload and planes both rehydrate from disk.
	// (The build func runs — the artifact identity needs the program
	// fingerprint — but the workload must not be *executed*, which
	// fromDisk pins.)
	pwWarm, fromDisk, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
	if err != nil {
		t.Fatal(err)
	}
	if !fromDisk {
		t.Fatal("second process did not rehydrate the workload from disk")
	}
	if err := pwWarm.EnsureAnnotatedCtx(context.Background(), cfgs, 2); err != nil {
		t.Fatal(err)
	}
	if c := pwWarm.Counters(); c.CacheAnnotations != 0 || c.BranchAnnotations != 0 {
		t.Fatalf("warm run annotated %d hierarchies, %d predictors; want 0 (planes must come from disk)", c.CacheAnnotations, c.BranchAnnotations)
	}
	for i, cfg := range cfgs {
		r, err := simulateOne(pwWarm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r != coldRes[i] {
			t.Fatalf("%s: rehydrated-plane simulation differs from cold run:\n cold %+v\n warm %+v", cfg, coldRes[i], r)
		}
	}
	// The single-point Annotation path also loads from disk: a third
	// rehydration simulating one config must not annotate either.
	pwOne, _, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
	if err != nil {
		t.Fatal(err)
	}
	r, err := simulateOne(pwOne, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if c := pwOne.Counters(); c.CacheAnnotations != 0 || c.BranchAnnotations != 0 {
		t.Fatalf("single-point warm path annotated %d/%d components, want 0", c.CacheAnnotations, c.BranchAnnotations)
	}
	if r != coldRes[0] {
		t.Fatal("single-point warm simulation differs from cold run")
	}
}

// TestArtifactRoundTripRandprog sweeps randomized programs through the
// disk tier: for each generated program, the rehydrated workload's
// prediction and detailed simulation are bit-identical to the fresh
// one's.
func TestArtifactRoundTripRandprog(t *testing.T) {
	cfg := uarch.Default()
	for seed := int64(1); seed <= 4; seed++ {
		store := openTestStore(t)
		prog := randprog.Generate(randprog.Default(seed))
		fresh, err := ProfileProgram(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		id := artifact.WorkloadID{Name: prog.Name}
		key, err := store.SaveWorkload(id, fresh.Trace, fresh.Prof)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr, prof, err := store.LoadWorkload(id)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		loaded := &Profiled{Name: prog.Name, Trace: tr, Prof: prof}
		loaded.AttachArtifacts(store, key)

		mf, err := fresh.PredictCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ml, err := loaded.PredictCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if *mf != *ml {
			t.Fatalf("seed %d: prediction differs after disk round trip", seed)
		}
		sf, err := simulateOne(fresh, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sl, err := simulateOne(loaded, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sf != sl {
			t.Fatalf("seed %d: detailed simulation differs after disk round trip", seed)
		}
	}
}
