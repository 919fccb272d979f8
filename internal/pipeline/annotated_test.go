package pipeline_test

import (
	"context"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// annotationFor builds the annotation planes for one design point
// directly from the cache/branch substrates (no harness cache), so the
// differential tests exercise the raw annotate-then-replay pipeline.
func annotationFor(tb testing.TB, tr *trace.Trace, cfg uarch.Config) pipeline.Annotation {
	tb.Helper()
	ann := memAnnotation(tb, tr, cfg)
	ann.Br = branchPlane(tr, cfg.Predictor)
	return ann
}

// memAnnotation is the cache half of annotationFor: one L2SpaceSim
// walking the trace's chunks with its plane recorded.
func memAnnotation(tb testing.TB, tr *trace.Trace, cfg uarch.Config) pipeline.Annotation {
	tb.Helper()
	hiers := []cache.HierarchyConfig{cfg.Hier}
	eng, err := cache.NewL2SpaceSim(hiers)
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.RecordPlanes(hiers); err != nil {
		tb.Fatal(err)
	}
	if err := tr.EachChunk(context.Background(), eng.ConsumeChunk); err != nil {
		tb.Fatal(err)
	}
	plane, err := eng.PlaneFor(cfg.Hier)
	if err != nil {
		tb.Fatal(err)
	}
	stats, err := eng.StatsFor(cfg.Hier)
	if err != nil {
		tb.Fatal(err)
	}
	iStalls, err := eng.IStallEvents(cfg.Hier)
	if err != nil {
		tb.Fatal(err)
	}
	stats.IL1Accesses += iStalls
	return pipeline.Annotation{Mem: plane, MemStats: stats}
}

// branchPlane annotates pk's mispredicts; under a context that never
// ends the annotation cannot fail.
func branchPlane(tr *trace.Trace, pk uarch.PredictorKind) *trace.BitPlane {
	p, _, _ := branch.AnnotateMispredicts(context.Background(), tr, pk.New())
	return p
}

// simulateOne replays a single annotated design point as a one-lane
// batch, the shape single-point validation uses.
func simulateOne(ctx context.Context, tr *trace.Trace, cfg uarch.Config, ann pipeline.Annotation) (pipeline.Result, error) {
	res, err := pipeline.SimulateAnnotatedBatch(ctx, tr, []pipeline.BatchPoint{{Cfg: cfg, Ann: ann}})
	if err != nil {
		return pipeline.Result{}, err
	}
	return res[0], nil
}

// diffResults fails the test unless the two full Results are
// bit-identical.
func diffResults(t *testing.T, label string, want, got pipeline.Result) {
	t.Helper()
	if want != got {
		t.Errorf("%s:\n  want %+v\n  got  %+v", label, want, got)
	}
}

// checkAnnotatedMatchesSimulate pins each config's one-lane annotated
// replay against Simulate (the full Result struct, not just CPI).
func checkAnnotatedMatchesSimulate(t *testing.T, tr *trace.Trace, cfgs []uarch.Config) {
	t.Helper()
	for _, cfg := range cfgs {
		want, err := pipeline.Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := simulateOne(context.Background(), tr, cfg, annotationFor(t, tr, cfg))
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, cfg.Name, want, got)
	}
}

// TestAnnotatedMatchesSimulateTable2 pins the single-point annotated
// replay against Simulate on a real workload trace across every one
// of the 192 Table 2 design points, each replayed as its own batch.
func TestAnnotatedMatchesSimulateTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("192-config differential sweep")
	}
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	checkAnnotatedMatchesSimulate(t, pw.Trace, dse.Space(uarch.Default()))
}

// TestAnnotatedMatchesSimulateRandom differentially tests the
// single-point annotated replay on random programs across randomized
// Table 2 configurations (every width, depth, L2 geometry and
// predictor appears).
func TestAnnotatedMatchesSimulateRandom(t *testing.T) {
	space := dse.Space(uarch.Default())
	for seed := int64(1); seed <= 6; seed++ {
		p := randprog.Generate(randprog.Default(seed))
		pw, err := harness.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		checkAnnotatedMatchesSimulate(t, pw.Trace, strided(space, seed))
	}
}

// strided samples the space with a deterministic, seed-dependent
// stride so all 192 points appear across seeds 1..6.
func strided(space []uarch.Config, seed int64) []uarch.Config {
	var cfgs []uarch.Config
	for i := int(seed) - 1; i < len(space); i += 6 {
		cfgs = append(cfgs, space[i])
	}
	return cfgs
}
