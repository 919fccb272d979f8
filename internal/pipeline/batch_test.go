package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// batchPointsFor builds one BatchPoint per config, pooling annotation
// planes across configs that share a component exactly like the
// harness's canonicalization layer does: one memory plane per distinct
// hierarchy, one bit plane per distinct predictor. The batch kernel
// keys its shared work on plane pointer identity, so the pooling also
// exercises the config-parallel paths.
func batchPointsFor(t *testing.T, tr *trace.Trace, cfgs []uarch.Config) []pipeline.BatchPoint {
	t.Helper()
	memPlanes := make(map[cache.HierarchyConfig]pipeline.Annotation)
	brPlanes := make(map[uarch.PredictorKind]*trace.BitPlane)
	pts := make([]pipeline.BatchPoint, len(cfgs))
	for i, cfg := range cfgs {
		mem, ok := memPlanes[cfg.Hier]
		if !ok {
			mem = annotationFor(t, tr, cfg)
			memPlanes[cfg.Hier] = mem
		}
		br, ok := brPlanes[cfg.Predictor]
		if !ok {
			br = branchPlane(tr, cfg.Predictor)
			brPlanes[cfg.Predictor] = br
		}
		pts[i] = pipeline.BatchPoint{
			Cfg: cfg,
			Ann: pipeline.Annotation{Mem: mem.Mem, MemStats: mem.MemStats, Br: br},
		}
	}
	return pts
}

// checkBatchMatchesAnnotated replays every config in one batch over
// pooled planes and pins each lane (the full Result struct, including
// cache stats) against the same point replayed alone as a one-lane
// batch: a lane's result must not depend on the lanes sharing its
// batch. TestAnnotatedMatchesSimulate* pins the one-lane replay
// against Simulate.
func checkBatchMatchesAnnotated(t *testing.T, tr *trace.Trace, cfgs []uarch.Config) {
	t.Helper()
	pts := batchPointsFor(t, tr, cfgs)
	got, err := pipeline.SimulateAnnotatedBatch(context.Background(), tr, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("batch returned %d results for %d points", len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := simulateOne(context.Background(), tr, cfg, pts[i].Ann)
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, cfg.Name, want, got[i])
	}
}

// TestBatchMatchesAnnotatedTable2 pins the batch kernel on a real
// workload trace across all 192 Table 2 design points evaluated in a
// single batch.
func TestBatchMatchesAnnotatedTable2(t *testing.T) {
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
	checkBatchMatchesAnnotated(t, pw.Trace, dse.Space(uarch.Default()))
}

// TestBatchMatchesAnnotatedRandom differentially tests the batch
// kernel on random programs across randomized Table 2 configurations
// (every width, depth, L2 geometry and predictor appears across the
// seeds), one batch call per program.
func TestBatchMatchesAnnotatedRandom(t *testing.T) {
	space := dse.Space(uarch.Default())
	for seed := int64(1); seed <= 6; seed++ {
		p := randprog.Generate(randprog.Default(seed))
		pw, err := harness.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		checkBatchMatchesAnnotated(t, pw.Trace, strided(space, seed))
	}
}

// TestBatchEdgeCases covers the degenerate inputs: no points, an
// invalid config, mismatched planes, and a front-end deeper than the
// kernel's 16-slot drain ring.
func TestBatchEdgeCases(t *testing.T) {
	p := randprog.Generate(randprog.Default(42))
	pw, err := harness.ProfileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := pipeline.SimulateAnnotatedBatch(ctx, pw.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}

	bad := uarch.Default()
	bad.Width = 0
	if _, err := pipeline.SimulateAnnotatedBatch(ctx, pw.Trace, []pipeline.BatchPoint{{Cfg: bad}}); err == nil {
		t.Fatal("invalid config accepted")
	}

	cfg := uarch.Default()
	ann := annotationFor(t, pw.Trace, cfg)
	short := pipeline.Annotation{Mem: trace.NewBytePlaneBuilder().Plane(), Br: ann.Br}
	if _, err := pipeline.SimulateAnnotatedBatch(ctx, pw.Trace, []pipeline.BatchPoint{{Cfg: cfg, Ann: short}}); err == nil {
		t.Fatal("mismatched annotation plane accepted")
	}

	deep := cfg
	deep.FrontEndDepth = 17
	if err := deep.Validate(); err != nil {
		t.Fatalf("depth-17 config should be a valid uarch.Config: %v", err)
	}
	if _, err := pipeline.SimulateAnnotatedBatch(ctx, pw.Trace, []pipeline.BatchPoint{{Cfg: deep, Ann: ann}}); err == nil {
		t.Fatal("front-end depth 17 accepted")
	}
	edge := cfg
	edge.FrontEndDepth = 16
	got, err := pipeline.SimulateAnnotatedBatch(ctx, pw.Trace, []pipeline.BatchPoint{{Cfg: edge, Ann: ann}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.Simulate(pw.Trace, edge)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "front-end depth 16", want, got[0])
}

// TestBatchCancel pins the batch-cancellation contract on a
// multi-lane batch: a pre-cancelled context aborts it with
// context.Canceled instead of replaying, and an uncancelled run is
// bit-identical to Simulate on every lane.
func TestBatchCancel(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []uarch.Config
	for w := 1; w <= 4; w++ {
		cfg := uarch.Default()
		cfg.Width = w
		cfgs = append(cfgs, cfg)
	}
	pts := batchPointsFor(t, pw.Trace, cfgs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pipeline.SimulateAnnotatedBatch(ctx, pw.Trace, pts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	got, err := pipeline.SimulateAnnotatedBatch(context.Background(), pw.Trace, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, fmt.Sprintf("width %d", cfg.Width), want, got[i])
	}
}

// TestBatchAllocBudget pins the batch kernel's memory to its block
// window: the bytes one call allocates, averaged over several calls,
// may not grow with trace length by more than 64 KB between a trace of
// about 4 chunks and one of about 32, on one lane and on the 192 Table
// 2 lanes (one memory plane per distinct hierarchy).
func TestBatchAllocBudget(t *testing.T) {
	const budget = 64 << 10
	long, err := harness.ProfileProgramScaledCtx(context.Background(), randprog.Generate(randprog.Default(5)), 32*trace.ChunkLen)
	if err != nil {
		t.Fatal(err)
	}
	short := truncated(long.Trace, 4*trace.ChunkLen)
	perCall := func(tr *trace.Trace, cfgs []uarch.Config) uint64 {
		pts := batchPointsFor(t, tr, cfgs)
		const calls = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			if _, err := pipeline.SimulateAnnotatedBatch(context.Background(), tr, pts); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	for _, c := range []struct {
		name string
		cfgs []uarch.Config
	}{
		{"one lane", []uarch.Config{uarch.Default()}},
		{"Table 2", dse.Space(uarch.Default())},
	} {
		s, l := perCall(short, c.cfgs), perCall(long.Trace, c.cfgs)
		t.Logf("%s: %d B/call at %d instructions, %d B/call at %d", c.name, s, short.Len(), l, long.Trace.Len())
		if l > s+budget {
			t.Errorf("%s: a call allocates %d B more on a %d-instruction trace than on a %d-instruction one (budget %d B)",
				c.name, l-s, long.Trace.Len(), short.Len(), budget)
		}
	}
}
