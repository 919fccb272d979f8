package pipeline_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// BenchmarkSimulate measures the self-contained detailed simulator:
// live cache hierarchy and predictor in the hot loop.
func BenchmarkSimulate(b *testing.B) {
	pw := profiledBench(b, "gsm_c")
	cfg := uarch.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Simulate(pw.Trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(pw.Trace.Len())
}

// BenchmarkAnnotate measures the one-time annotation pass for one
// hierarchy plus one predictor — the cost amortized across every
// design point sharing those components: a fresh L2SpaceSim and
// predictor walk the trace's chunks each iteration. Its MB/s reads as
// million instructions per second.
func BenchmarkAnnotate(b *testing.B) {
	pw := profiledBench(b, "gsm_c")
	cfg := uarch.Default()
	b.SetBytes(pw.Trace.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		annotationFor(b, pw.Trace, cfg)
	}
}

func profiledBench(b *testing.B, name string) *harness.Profiled {
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
