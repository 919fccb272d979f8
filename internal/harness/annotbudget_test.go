package harness

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// budgetSpaceConfigs is a small slice of the Table 2 space covering
// several distinct hierarchies, predictors and timing parameters.
func budgetSpaceConfigs() []uarch.Config {
	base := uarch.Default()
	return []uarch.Config{
		base,
		base.WithL2(128, 8),
		base.WithL2(1024, 16),
		base.WithWidth(2),
		base.WithPredictor(uarch.PredHybrid3_5KB),
		base.WithWidth(1).WithL2(256, 16).WithPredictor(uarch.PredHybrid3_5KB),
	}
}

// TestAnnotBudgetKeepsBytesBounded pins the eviction contract: with
// any byte budget — including one smaller than a single plane — the
// resident cache bytes never exceed the budget after a request
// completes, evictions actually happen, every simulation stays
// bit-identical to the unbounded path, and no component is annotated
// twice within one call.
func TestAnnotBudgetKeepsBytesBounded(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{32 << 10, 1 << 30} {
		pw := MustProfileProgram(spec.Build())
		pw.SetAnnotBudget(budget)
		for i, cfg := range budgetSpaceConfigs() {
			got, err := simulateOne(pw, cfg)
			if err != nil {
				t.Fatalf("budget %d, cfg %s: %v", budget, cfg, err)
			}
			// The planes a call resolves are the ones it simulates
			// with, even when the budget evicts them at once: the
			// first point annotates its hierarchy and predictor once.
			if c := pw.Counters(); i == 0 && (c.CacheAnnotations != 1 || c.BranchAnnotations != 1) {
				t.Errorf("budget %d: first point annotated %d hierarchies and %d predictors, want 1 and 1", budget, c.CacheAnnotations, c.BranchAnnotations)
			}
			want, err := pipeline.Simulate(pw.Trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("budget %d, cfg %s: single-point simulation diverges under eviction:\n got  %+v\n want %+v",
					budget, cfg, got, want)
			}
			if used := pw.Counters().Bytes; used > budget {
				t.Fatalf("budget %d: resident bytes %d exceed budget", budget, used)
			}
		}
		if budget < 1<<20 && pw.Counters().Evictions == 0 {
			t.Errorf("tiny budget %d evicted nothing", budget)
		}
		if budget == 1<<30 && pw.Counters().Evictions != 0 {
			t.Errorf("large budget %d evicted %d entries, want 0", budget, pw.Counters().Evictions)
		}
	}
}

// TestAnnotBudgetUnsetNeverEvicts pins backward compatibility: without
// SetAnnotBudget the store grows as before and never evicts, so the
// exploration-sharing invariants of earlier PRs are untouched.
func TestAnnotBudgetUnsetNeverEvicts(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	for _, cfg := range budgetSpaceConfigs() {
		if _, err := simulateOne(pw, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if pw.Counters().Evictions != 0 {
		t.Fatalf("unbounded store evicted %d entries", pw.Counters().Evictions)
	}
	if pw.Counters().Bytes == 0 {
		t.Fatal("accounting recorded zero bytes for a populated store")
	}
}

// TestSetAnnotBudgetEvictsRetroactively pins that lowering the budget
// on a populated store evicts immediately.
func TestSetAnnotBudgetEvictsRetroactively(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	for _, cfg := range budgetSpaceConfigs() {
		if _, err := simulateOne(pw, cfg); err != nil {
			t.Fatal(err)
		}
	}
	grown := pw.Counters().Bytes
	if grown == 0 {
		t.Fatal("store empty before budget change")
	}
	const budget = 16 << 10
	pw.SetAnnotBudget(budget)
	if used := pw.Counters().Bytes; used > budget {
		t.Fatalf("resident bytes %d exceed new budget %d", used, budget)
	}
	if pw.Counters().Evictions == 0 {
		t.Fatal("no evictions after budget drop")
	}
	// The store keeps answering correctly after the purge.
	cfg := uarch.Default()
	got, err := simulateOne(pw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.Simulate(pw.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-purge single-point simulation diverges:\n got  %+v\n want %+v", got, want)
	}
}
