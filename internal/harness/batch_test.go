package harness

import (
	"context"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func batchTestConfigs() []uarch.Config {
	base := uarch.Default()
	return []uarch.Config{
		base,
		base, // repeated: one claim serves both points
		base.WithL2(1024, 16),
		base.WithWidth(2).WithPredictor(uarch.PredHybrid3_5KB),
	}
}

// TestSimulateDetailedBatchMatchesSimulate pins the batch entry point
// against the self-contained simulator: every design point out of one
// config-parallel pass must be bit-identical to pipeline.Simulate, and
// the timing entries it memoizes must be hits for later single-point
// calls (no new memo entry, same Result).
func TestSimulateDetailedBatchMatchesSimulate(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	cfgs := batchTestConfigs()
	got, err := pw.SimulateDetailedBatchCtx(context.Background(), cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cfgs) {
		t.Fatalf("batch returned %d results for %d configs", len(got), len(cfgs))
	}
	entries := timingEntries(pw)
	for i, cfg := range cfgs {
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("cfg %d (%s): batch diverges:\n got  %+v\n want %+v", i, cfg, got[i], want)
		}
		single, err := simulateOne(pw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if single != got[i] {
			t.Errorf("cfg %d (%s): single point after batch differs:\n got  %+v\n want %+v", i, cfg, single, got[i])
		}
	}
	if n := timingEntries(pw); n != entries {
		t.Errorf("single points after the batch grew the timing memo from %d to %d entries — memo not shared", entries, n)
	}
}

func timingEntries(pw *Profiled) int {
	pw.annot.mu.Lock()
	defer pw.annot.mu.Unlock()
	return len(pw.annot.timing.entries)
}

// TestSimulateDetailedConcurrentSinglePoints drives single-point
// calls for overlapping design points from several goroutines at once,
// so one-element batches race to claim, wait on and publish the same
// timing memo entries. Every answer must equal pipeline.Simulate's,
// and the memo must hold one entry per distinct timing key.
func TestSimulateDetailedConcurrentSinglePoints(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	cfgs := batchTestConfigs()
	want := make([]pipeline.Result, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = pipeline.Simulate(pw.Trace, cfg); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cfgs {
				i := (g + k) % len(cfgs)
				got, err := simulateOne(pw, cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d, cfg %d (%s) diverges:\n got  %+v\n want %+v", g, i, cfgs[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	keys := make(map[timingKey]bool)
	for _, cfg := range cfgs {
		ann, err := pw.AnnotationCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys[timingKeyOf(cfg, ann.Mem, ann.Br)] = true
	}
	if n := timingEntries(pw); n != len(keys) {
		t.Errorf("timing memo holds %d entries for %d distinct keys", n, len(keys))
	}
}

// TestSimulateDetailedBatchRejectsDeepFrontEnd pins the depth limit
// single-point validation inherits from the replay kernel: a valid
// uarch.Config with a 17-stage front-end is an error, not a panic, it
// leaves no timing memo entry behind, and a following valid call
// still succeeds bit-identically.
func TestSimulateDetailedBatchRejectsDeepFrontEnd(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	deep := uarch.Default()
	deep.FrontEndDepth = 17
	if err := deep.Validate(); err != nil {
		t.Fatalf("depth-17 config should be a valid uarch.Config: %v", err)
	}
	if _, err := simulateOne(pw, deep); err == nil {
		t.Fatal("front-end depth 17 accepted")
	}
	if n := timingEntries(pw); n != 0 {
		t.Fatalf("rejected point left %d timing memo entries, want 0", n)
	}
	cfg := uarch.Default()
	got, err := simulateOne(pw, cfg)
	if err != nil {
		t.Fatalf("valid point after the rejected one: %v", err)
	}
	want, err := pipeline.Simulate(pw.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("valid point after the rejected one diverges:\n got  %+v\n want %+v", got, want)
	}
}

// TestSimulateDetailedBatchCancelLeavesNoPartialMemo pins the
// claimant contract of the batch path: a cancelled batch reports
// ctx.Err() and resolves-and-removes every timing entry it claimed, so
// the memo never holds a partial or poisoned entry, and a later call
// with a live context recomputes everything bit-identically.
//
// Annotations are cached up front so the cancellation lands in the
// batch phase itself rather than in annotation; wherever the internal
// checkpoints observe it (partition, shard cut, or a chunk boundary
// inside the kernel), the visible outcome must be the same.
func TestSimulateDetailedBatchCancelLeavesNoPartialMemo(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	cfgs := batchTestConfigs()
	if err := pw.EnsureAnnotatedCtx(context.Background(), cfgs, 2); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pw.SimulateDetailedBatchCtx(ctx, cfgs, 2); err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if left := timingEntries(pw); left != 0 {
		t.Fatalf("cancelled batch left %d timing memo entries, want 0", left)
	}

	// Recovery: the same points under a live context compute cleanly
	// and match the reference simulator.
	got, err := pw.SimulateDetailedBatchCtx(context.Background(), cfgs, 2)
	if err != nil {
		t.Fatalf("batch after cancellation: %v", err)
	}
	for i, cfg := range cfgs {
		want, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("cfg %d (%s): post-cancel batch diverges:\n got  %+v\n want %+v", i, cfg, got[i], want)
		}
	}
	if timingEntries(pw) == 0 {
		t.Fatal("successful batch stored no timing memo entries")
	}
}
