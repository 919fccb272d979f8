package harness

import (
	"context"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// simulateOne is single-point detailed simulation: a one-element
// SimulateDetailedBatchCtx on one worker.
func simulateOne(pw *Profiled, cfg uarch.Config) (pipeline.Result, error) {
	res, err := pw.SimulateDetailedBatchCtx(context.Background(), []uarch.Config{cfg}, 1)
	if err != nil {
		return pipeline.Result{}, err
	}
	return res[0], nil
}

// TestSimulateDetailedMatchesSimulate pins single-point detailed
// simulation (plane cache + timing memo + one-lane batch replay)
// against the self-contained simulator, including the memoized-reuse
// path: two configurations sharing planes and timing must both come
// out bit-identical.
func TestSimulateDetailedMatchesSimulate(t *testing.T) {
	spec, err := workloads.ByName("dijkstra")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	base := uarch.Default()
	cfgs := []uarch.Config{
		base,
		base, // repeated: memoized timing, stamped stats
		base.WithL2(1024, 16),
		base.WithWidth(2).WithPredictor(uarch.PredHybrid3_5KB),
	}
	for i, cfg := range cfgs {
		got, err := simulateOne(pw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("cfg %d (%s): single-point simulation diverges:\n got  %+v\n want %+v", i, cfg, got, want)
		}
	}
}

// TestEnsureAnnotatedFailureIsRetryable pins the error handling of
// the plane cache: a bad hierarchy in a batch must not poison valid
// components, and the failed entry must be evicted so later calls see
// the error again (a retry) instead of silently-cached staleness.
func TestEnsureAnnotatedFailureIsRetryable(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	good := uarch.Default()
	bad := uarch.Default()
	bad.Hier.ITLBEntries = 0 // invalid front

	if err := pw.EnsureAnnotatedCtx(context.Background(), []uarch.Config{bad, good}, 2); err == nil {
		t.Fatal("EnsureAnnotatedCtx accepted an invalid hierarchy")
	}
	// The valid hierarchy from the same batch must be usable.
	if _, err := simulateOne(pw, good); err != nil {
		t.Errorf("valid config poisoned by batch-mate's failure: %v", err)
	}
	// The invalid one must fail again (fresh attempt, not a stale
	// cached error on a zombie entry).
	if err := pw.EnsureAnnotatedCtx(context.Background(), []uarch.Config{bad}, 1); err == nil {
		t.Error("second EnsureAnnotatedCtx of invalid hierarchy did not error")
	}
	if _, err := simulateOne(pw, good); err != nil {
		t.Errorf("valid config broken after retry of invalid one: %v", err)
	}
}
