// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §5), plus microbenchmarks for the pieces
// whose cost ratio is the paper's headline (instant model evaluation
// versus expensive detailed simulation).
//
// Regenerate a figure's data:
//
//	go test -bench=BenchmarkFig4 -benchtime=1x -v .
//
// Each figure benchmark reports the experiment's headline metric(s)
// via b.ReportMetric and prints nothing unless -v is given.
package repro_test

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/funcsim"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// BenchmarkTable2Space enumerates and validates the 192-point space.
func BenchmarkTable2Space(b *testing.B) {
	for i := 0; i < b.N; i++ {
		space := dse.Space(uarch.Default())
		if len(space) != 192 {
			b.Fatalf("space size %d", len(space))
		}
	}
}

// BenchmarkFig3Validation regenerates Figure 3: model vs detailed CPI
// for the 19 MiBench-like benchmarks on the default configuration.
func BenchmarkFig3Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Summary.Mean, "avg-err-%")
		b.ReportMetric(100*r.Summary.Max, "max-err-%")
		if i == 0 && testing.Verbose() {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFig4WidthSweep regenerates Figure 4: CPI stacks versus
// width for sha, tiffdither and dijkstra.
func BenchmarkFig4WidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		shaGain := r.Benchmarks["sha"][0].Stack.CPI() / r.Benchmarks["sha"][3].Stack.CPI()
		dijGain := r.Benchmarks["dijkstra"][0].Stack.CPI() / r.Benchmarks["dijkstra"][3].Stack.CPI()
		b.ReportMetric(shaGain, "sha-w4-speedup")
		b.ReportMetric(dijGain, "dijkstra-w4-speedup")
		if i == 0 && testing.Verbose() {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFig5DesignSpace regenerates Figure 5 on a three-benchmark
// subset (the full 19-benchmark sweep lives in cmd/experiments; one
// iteration here stays under ~15 s).
func BenchmarkFig5DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5([]string{"gsm_c", "tiff2bw", "rsynth"}, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Summary.Mean, "avg-err-%")
		b.ReportMetric(100*r.FracBelow6, "below-6%-%")
		if i == 0 && testing.Verbose() {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFig6SPEC regenerates Figure 6: the memory-intensive
// SPEC-like validation.
func BenchmarkFig6SPEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Summary.Mean, "avg-err-%")
		if i == 0 && testing.Verbose() {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFig7InOrderVsOoO regenerates Figure 7.
func BenchmarkFig7InOrderVsOoO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		var inSum, ooSum float64
		for _, row := range r.Rows {
			inSum += row.InOrder.CPI()
			ooSum += row.OoO.CPI()
		}
		b.ReportMetric(inSum/ooSum, "inorder-vs-ooo-cpi-ratio")
		if i == 0 && testing.Verbose() {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFig8CompilerOpts regenerates Figure 8.
func BenchmarkFig8CompilerOpts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		cells := r.Benchmarks["gsm_c"]
		b.ReportMetric(cells[0].Normalized, "gsm_c-nosched-norm")
		b.ReportMetric(cells[2].Normalized, "gsm_c-unroll-norm")
		if i == 0 && testing.Verbose() {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFig9EDP regenerates Figure 9 (full 192-point exploration of
// the four EDP-study benchmarks with detailed-simulation validation).
func BenchmarkFig9EDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(0)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range r.Rows {
			if row.EDPGapPercent > worst {
				worst = row.EDPGapPercent
			}
		}
		b.ReportMetric(worst, "worst-edp-gap-%")
		if i == 0 && testing.Verbose() {
			b.Log("\n" + r.Render())
		}
	}
}

// --- Microbenchmarks: where the 3-orders-of-magnitude speedup lives ---

func profiledFor(b *testing.B, name string) *harness.Profiled {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	return pw
}

// BenchmarkTraceRecording measures recording a workload's dynamic
// trace into the chunked columnar store, and reports the encoding
// density: bytes per recorded instruction and the compaction factor
// over an array of tracetest.Inst records, one per instruction with
// every field spelled out. Run with -benchmem so B/op and allocs/op
// land in the BENCH_N.json baseline — trace-memory regressions show up
// there.
func BenchmarkTraceRecording(b *testing.B) {
	spec, err := workloads.ByName("gsm_c")
	if err != nil {
		b.Fatal(err)
	}
	p := spec.Build()
	var tr *trace.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := trace.NewBuilder()
		if _, err := funcsim.RunProgram(p, tb); err != nil {
			b.Fatal(err)
		}
		tr = tb.Trace()
	}
	b.SetBytes(tr.Len())
	aosBytes := tr.Len() * int64(unsafe.Sizeof(tracetest.Inst{}))
	b.ReportMetric(float64(tr.SizeBytes())/float64(tr.Len()), "bytes/inst")
	b.ReportMetric(float64(aosBytes)/float64(tr.SizeBytes()), "compaction-x")
}

// BenchmarkProfiling measures the one-time per-binary profiling cost.
func BenchmarkProfiling(b *testing.B) {
	spec, _ := workloads.ByName("gsm_c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.ProfileProgram(spec.Build()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelEvaluation measures one closed-form model evaluation
// (machine statistics already collected) — the per-design-point cost.
func BenchmarkModelEvaluation(b *testing.B) {
	pw := profiledFor(b, "gsm_c")
	cfg := uarch.Default()
	in, err := pw.InputsCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Predict(in, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineStats measures one trace replay through caches and
// predictor — the per-(hierarchy, predictor) statistics cost shared by
// many design points.
func BenchmarkMachineStats(b *testing.B) {
	pw := profiledFor(b, "gsm_c")
	cfg := uarch.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.MachineStatsCtx(context.Background(), pw.Trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(pw.Trace.Len())
}

// BenchmarkMultiMachineStats measures the single-pass collection of
// machine statistics for all 16 Table 2 (L2, predictor) combinations —
// the replacement for 16 per-configuration replays.
func BenchmarkMultiMachineStats(b *testing.B) {
	pw := profiledFor(b, "gsm_c")
	space := dse.Space(uarch.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pw.MultiInputsCtx(context.Background(), space); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(pw.Trace.Len())
}

// BenchmarkDetailedSimulation measures one cycle-accurate run — what
// every design point costs without the model.
func BenchmarkDetailedSimulation(b *testing.B) {
	pw := profiledFor(b, "gsm_c")
	cfg := uarch.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Simulate(pw.Trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(pw.Trace.Len())
}

// BenchmarkDetailedSimulationAnnotated measures the annotation-plane
// fast path for the same design point: machine events precomputed,
// timing-only replay as a one-lane batch, the shape single-point
// validation uses (annotation cost excluded — it is paid once per
// machine component and shared across the whole design space).
func BenchmarkDetailedSimulationAnnotated(b *testing.B) {
	pw := profiledFor(b, "gsm_c")
	cfg := uarch.Default()
	ann, err := pw.AnnotationCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	pts := []pipeline.BatchPoint{{Cfg: cfg, Ann: ann}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.SimulateAnnotatedBatch(context.Background(), pw.Trace, pts); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(pw.Trace.Len())
}

// BenchmarkModelDesignSpace measures the model across all 192 points
// (machine statistics for the whole space come from a single trace
// replay).
func BenchmarkModelDesignSpace(b *testing.B) {
	pw := profiledFor(b, "gsm_c")
	space := dse.Space(uarch.Default())
	pm := power.NewModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.ExploreCtx(context.Background(), pw, space, pm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreValidatedFull measures the expensive path the model
// exists to avoid: the full 192-point space with detailed simulation
// at every point.
func BenchmarkExploreValidatedFull(b *testing.B) {
	pw := profiledFor(b, "gsm_c")
	space := dse.Space(uarch.Default())
	pm := power.NewModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.ExploreValidatedCtx(context.Background(), pw, space, pm, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreBatch measures the cold config-parallel validated
// sweep: every iteration starts from an empty annotation/timing cache
// (trace and profile shared), so the number is the true end-to-end
// cost of annotating and batch-replaying all 192 design points —
// unlike BenchmarkExploreValidatedFull, whose iterations after the
// first serve timing from the memo.
func BenchmarkExploreBatch(b *testing.B) {
	pw := profiledFor(b, "gsm_c")
	space := dse.Space(uarch.Default())
	pm := power.NewModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.ExploreValidatedCtx(context.Background(), pw.Fresh(), space, pm, 0); err != nil {
			b.Fatal(err)
		}
	}
}
