package pipeline_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// uniqueTimingPoints mirrors the harness's timing-memo deduplication:
// one BatchPoint per distinct (width, depth, latency-table,
// plane-identity) combination of the Table 2 space — the set of lanes
// a validated exploration actually replays.
func uniqueTimingPoints(b *testing.B, tr *trace.Trace, cfgs []uarch.Config) []pipeline.BatchPoint {
	b.Helper()
	type key struct {
		width, depth        int
		mulLat, divLat      int
		l2hit, l2miss, walk int
		mem                 *trace.BytePlane
		br                  *trace.BitPlane
	}
	memPlanes := make(map[cache.HierarchyConfig]pipeline.Annotation)
	var memCanon []*trace.BytePlane
	brPlanes := make(map[uarch.PredictorKind]*trace.BitPlane)
	var brCanon []*trace.BitPlane
	seen := make(map[key]bool)
	var pts []pipeline.BatchPoint
	for _, cfg := range cfgs {
		mem, ok := memPlanes[cfg.Hier]
		if !ok {
			mem = memAnnotation(b, tr, cfg)
			for _, c := range memCanon {
				if c.Equal(mem.Mem) {
					mem.Mem = c
					break
				}
			}
			if mem.Mem != nil {
				memCanon = append(memCanon, mem.Mem)
			}
			memPlanes[cfg.Hier] = mem
		}
		br, ok := brPlanes[cfg.Predictor]
		if !ok {
			br = branchPlane(tr, cfg.Predictor)
			for _, c := range brCanon {
				if c.Equal(br) {
					br = c
					break
				}
			}
			brCanon = append(brCanon, br)
			brPlanes[cfg.Predictor] = br
		}
		k := key{cfg.Width, cfg.FrontEndDepth, cfg.MulLatency, cfg.DivLatency,
			cfg.L2HitCycles(), cfg.L2MissCycles(), cfg.TLBWalkCycles(), mem.Mem, br}
		if seen[k] {
			continue
		}
		seen[k] = true
		pts = append(pts, pipeline.BatchPoint{
			Cfg: cfg,
			Ann: pipeline.Annotation{Mem: mem.Mem, MemStats: mem.MemStats, Br: br},
		})
	}
	return pts
}

// BenchmarkBatchKernel measures the config-parallel replay kernel
// alone on the deduplicated lane set of the Table 2 space (what a
// validated exploration replays after the timing memo collapses
// repeat keys).
func BenchmarkBatchKernel(b *testing.B) {
	spec, err := workloads.ByName("gsm_c")
	if err != nil {
		b.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		b.Fatal(err)
	}
	pts := uniqueTimingPoints(b, pw.Trace, dse.Space(uarch.Default()))
	b.ResetTimer()
	b.ReportMetric(float64(len(pts)), "lanes")
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.SimulateAnnotatedBatch(context.Background(), pw.Trace, pts); err != nil {
			b.Fatal(err)
		}
	}
}
