package dse

import (
	"context"
	"testing"

	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/power"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestExploreValidatedBitIdenticalFromDisk is the acceptance gate for
// the artifact store at the exploration layer: a full validated Table 2
// exploration of sha must produce identical results — every model
// number and every detailed-simulation Result at all 192 design points
// — whether the workload was profiled fresh or rehydrated from a store
// written by another Profiled instance. The rehydrated run must also
// perform zero profiling-pass annotations (its planes come from disk).
func TestExploreValidatedBitIdenticalFromDisk(t *testing.T) {
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	space := Space(uarch.Default())
	pm := power.NewModel()

	fresh, fromDisk, err := harness.ProfileProgramCached(store, "sha", 0, spec.Build)
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk {
		t.Fatal("first run claims a disk hit on an empty store")
	}
	ptsFresh, err := ExploreValidatedCtx(context.Background(), fresh, space, pm, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Separate Profiled (modeling a separate process): trace, profile
	// and all annotation planes rehydrate from disk.
	loaded, fromDisk, err := harness.ProfileProgramCached(store, "sha", 0, spec.Build)
	if err != nil {
		t.Fatal(err)
	}
	if !fromDisk {
		t.Fatal("second run missed the artifact store")
	}
	ptsDisk, err := ExploreValidatedCtx(context.Background(), loaded, space, pm, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c := loaded.Counters(); c.CacheAnnotations != 0 || c.BranchAnnotations != 0 {
		t.Fatalf("rehydrated exploration annotated %d hierarchies and %d predictors, want 0 (planes must load from disk)", c.CacheAnnotations, c.BranchAnnotations)
	}

	if len(ptsFresh) != len(ptsDisk) {
		t.Fatalf("point counts differ: %d fresh, %d from disk", len(ptsFresh), len(ptsDisk))
	}
	for i := range ptsFresh {
		f, d := ptsFresh[i], ptsDisk[i]
		if f.Cfg.Name != d.Cfg.Name {
			t.Fatalf("point %d: config order differs (%s vs %s)", i, f.Cfg.Name, d.Cfg.Name)
		}
		if *f.ModelStack != *d.ModelStack ||
			f.ModelCycles != d.ModelCycles || f.ModelCPI != d.ModelCPI ||
			f.ModelSecs != d.ModelSecs || f.ModelEDP != d.ModelEDP {
			t.Fatalf("%s: model results differ between fresh and rehydrated workload", f.Cfg.Name)
		}
		if (f.Sim == nil) != (d.Sim == nil) {
			t.Fatalf("%s: validation presence differs", f.Cfg.Name)
		}
		if f.Sim != nil && *f.Sim != *d.Sim {
			t.Fatalf("%s: detailed simulation differs between fresh and rehydrated workload:\n fresh %+v\n disk  %+v", f.Cfg.Name, *f.Sim, *d.Sim)
		}
		if f.SimCPI != d.SimCPI || f.SimSecs != d.SimSecs || f.SimEDP != d.SimEDP || f.CPIErr != d.CPIErr {
			t.Fatalf("%s: derived validation numbers differ", f.Cfg.Name)
		}
	}

	mf, sf := BestEDP(ptsFresh)
	md, sd := BestEDP(ptsDisk)
	if mf != md || sf != sd {
		t.Fatal("best-EDP selections differ between fresh and rehydrated exploration")
	}
}
