package branch_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/branch"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func annotateTestTrace(t *testing.T) *trace.Trace {
	t.Helper()
	spec, err := workloads.ByName("dijkstra")
	if err != nil {
		t.Fatal(err)
	}
	return harness.MustProfileProgram(spec.Build()).Trace
}

// TestAnnotateMispredictsMatchesCollector pins the fused annotation
// against the per-record Collector reference (ConsumeRef) for every
// predictor kind: the plane marks exactly the branches the reference
// mispredicts, and the fused Stats equal the reference's.
func TestAnnotateMispredictsMatchesCollector(t *testing.T) {
	tr := annotateTestTrace(t)
	for _, pk := range []uarch.PredictorKind{uarch.PredGShare1KB, uarch.PredHybrid3_5KB, uarch.PredBimodal2KB, uarch.PredStaticNT} {
		plane, st, err := branch.AnnotateMispredicts(context.Background(), tr, pk.New())
		if err != nil {
			t.Fatalf("%v: %v", pk, err)
		}
		ref := branch.NewCollector(pk.New())
		bits := branch.ConsumeRef(ref, tr)
		if st != ref.S {
			t.Errorf("%v: fused stats %+v, collector %+v", pk, st, ref.S)
		}
		if plane.Len() != int64(len(bits)) {
			t.Fatalf("%v: plane covers %d instructions, trace has %d", pk, plane.Len(), len(bits))
		}
		if plane.Count() != ref.S.Mispredicts {
			t.Errorf("%v: plane marks %d mispredicts, collector counts %d", pk, plane.Count(), ref.S.Mispredicts)
		}
		for i, want := range bits {
			if plane.Get(int64(i)) != want {
				t.Fatalf("%v: instruction %d marked %v, collector says %v", pk, i, !want, want)
			}
		}
	}
}

// TestAnnotateMispredictsCancel pins the cancellation contract: an
// ended context aborts the annotation with its error and no plane.
func TestAnnotateMispredictsCancel(t *testing.T) {
	tr := annotateTestTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plane, _, err := branch.AnnotateMispredicts(ctx, tr, uarch.PredGShare1KB.New())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled annotation returned %v, want context.Canceled", err)
	}
	if plane != nil {
		t.Fatal("cancelled annotation returned a plane")
	}
}
