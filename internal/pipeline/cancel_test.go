package pipeline_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestSimulateAnnotatedCtx pins the single-point replay-cancellation
// contract: an uncancelled one-lane run is bit-identical to Simulate,
// and a pre-cancelled context aborts with its error instead of
// replaying.
func TestSimulateAnnotatedCtx(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.Default()
	ann := annotationFor(t, pw.Trace, cfg)

	want, err := pipeline.Simulate(pw.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simulateOne(context.Background(), pw.Trace, cfg, ann)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "live-context run", want, got)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := simulateOne(ctx, pw.Trace, cfg, ann); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v, want context.Canceled", err)
	}
}
