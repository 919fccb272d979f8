package harness

import (
	"context"
	"testing"

	"repro/internal/uarch"
	"repro/internal/workloads"
)

// table2Combos enumerates the 16 distinct (L2 size, L2 ways, predictor)
// statistics sets behind the 192-point Table 2 space.
func table2Combos() []uarch.Config {
	var out []uarch.Config
	base := uarch.Default()
	for _, sizeKB := range []int{128, 256, 512, 1024} {
		for _, ways := range []int{8, 16} {
			for _, pk := range []uarch.PredictorKind{uarch.PredGShare1KB, uarch.PredHybrid3_5KB} {
				out = append(out, base.WithL2(sizeKB, ways).WithPredictor(pk))
			}
		}
	}
	return out
}

// TestMultiStatsMatchesPerConfigReplay pins the tentpole property: the
// single-pass engine must reproduce, bit for bit, the statistics the
// per-configuration replay collects for every Table 2 combination.
func TestMultiStatsMatchesPerConfigReplay(t *testing.T) {
	for _, name := range []string{"sha", "tiff2bw"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			pw := MustProfileProgram(spec.Build())
			combos := table2Combos()
			set, err := pw.MultiInputsCtx(context.Background(), combos)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range combos {
				wantC, wantB, err := MachineStatsCtx(context.Background(), pw.Trace, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := set.Inputs(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Mem != wantC {
					t.Errorf("%s: cache stats diverge\n got  %+v\n want %+v", cfg, got.Mem, wantC)
				}
				if got.Branch != wantB {
					t.Errorf("%s: branch stats diverge\n got  %+v\n want %+v", cfg, got.Branch, wantB)
				}
			}
		})
	}
}

// TestCollectMultiStatsSinglePass asserts the whole Table 2 space
// costs exactly one trace traversal.
func TestCollectMultiStatsSinglePass(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	set, err := pw.MultiInputsCtx(context.Background(), table2Combos())
	if err != nil {
		t.Fatal(err)
	}
	if got := pw.Counters().StatsTraversals; got != 1 || set.Replays() != 1 {
		t.Errorf("MultiInputsCtx over 16 combos took %d replays (set counted %d), want 1", got, set.Replays())
	}
}

// TestMultiStatsUnknownConfig verifies lookups outside the collected
// space fail loudly instead of returning zero statistics.
func TestMultiStatsUnknownConfig(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	base := uarch.Default()
	set, err := pw.MultiInputsCtx(context.Background(), []uarch.Config{base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Inputs(base.WithL2(128, 16)); err == nil {
		t.Error("unknown hierarchy accepted")
	}
	if _, err := set.Inputs(base.WithPredictor(uarch.PredBimodal2KB)); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// TestInputsSetMatchesOneShot pins the search's statistics economy
// AND its bit-identity claim at once: feeding the Table 2 component
// combinations to an InputsSet in several incremental batches must
// cost one replay per batch that actually misses, zero for covered
// batches, and hand out inputs bit-identical to one MultiInputsCtx
// pass over the union.
func TestInputsSetMatchesOneShot(t *testing.T) {
	spec, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	cfgs := table2Combos()

	ctx := context.Background()
	oneShot, err := pw.MultiInputsCtx(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	sc := pw.NewInputsSet()
	// Three overlapping batches: the second re-adds half of the first
	// (already covered, but alongside new hierarchies), the third is
	// fully covered and must not replay.
	if err := sc.Add(ctx, cfgs[:6]); err != nil {
		t.Fatal(err)
	}
	if err := sc.Add(ctx, cfgs[3:]); err != nil {
		t.Fatal(err)
	}
	if got := sc.Replays(); got != 2 {
		t.Fatalf("replays after two missing batches = %d, want 2", got)
	}
	if err := sc.Add(ctx, cfgs); err != nil {
		t.Fatal(err)
	}
	if got := sc.Replays(); got != 2 {
		t.Fatalf("covered batch replayed: %d traversals, want still 2", got)
	}

	for _, cfg := range cfgs {
		want, err := oneShot.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := sc.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if in.Mem != want.Mem {
			t.Fatalf("%s: cache stats differ from one-shot:\n got %+v\nwant %+v", cfg.Name, in.Mem, want.Mem)
		}
		if in.Branch != want.Branch {
			t.Fatalf("%s: branch stats differ from one-shot:\n got %+v\nwant %+v", cfg.Name, in.Branch, want.Branch)
		}
		if in.Prof != pw.Prof {
			t.Fatalf("%s: profile pointer differs", cfg.Name)
		}
	}
}

// TestExploreInputsMatchesMultiInputs pins the fused annotation+inputs
// pass against the plain statistics pass: whatever mix of freshly
// computed, already-resident and disk-loaded components the annotation
// step meets, every design point's inputs are bit-identical to
// MultiInputsCtx's, and the leftover statistics collection walks the
// trace only when the memo lacks some component's statistics: every
// annotation walk, including an earlier EnsureAnnotatedCtx's, publishes
// its own.
func TestExploreInputsMatchesMultiInputs(t *testing.T) {
	ctx := context.Background()
	combos := table2Combos()
	for _, name := range []string{"crc32", "sha"} {
		spec := mustSpec(t, name)
		store := openTestStore(t)
		ref, _, err := ProfileProgramCached(store, name, 0, spec.Build)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Fresh().MultiInputsCtx(ctx, combos)
		if err != nil {
			t.Fatal(err)
		}
		half := ref.Fresh()
		if err := half.EnsureAnnotatedCtx(ctx, combos[:len(combos)/2], 2); err != nil {
			t.Fatal(err)
		}
		// ref writes every plane through to the store, so the
		// rehydrated workload below loads them all from disk.
		if err := ref.EnsureAnnotatedCtx(ctx, combos, 2); err != nil {
			t.Fatal(err)
		}
		warm, fromDisk, err := ProfileProgramCached(store, name, 0, spec.Build)
		if err != nil {
			t.Fatal(err)
		}
		if !fromDisk {
			t.Fatalf("%s: workload did not rehydrate from the store", name)
		}
		for _, st := range []struct {
			state      string
			pw         *Profiled
			traversals int64
		}{
			{"cold", ref.Fresh(), 0},
			{"half-annotated", half, 0},
			{"rehydrated", warm, 1},
		} {
			before := st.pw.Counters().StatsTraversals
			got, err := st.pw.ExploreInputsCtx(ctx, combos, 2)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, st.state, err)
			}
			if n := st.pw.Counters().StatsTraversals - before; n != st.traversals {
				t.Errorf("%s/%s: leftover collection took %d replays, want %d", name, st.state, n, st.traversals)
			}
			for _, cfg := range combos {
				g, err := got.Inputs(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want.Inputs(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if g.Mem != w.Mem || g.Branch != w.Branch {
					t.Errorf("%s/%s, %s: fused inputs diverge\n got  %+v %+v\n want %+v %+v", name, st.state, cfg.Name, g.Mem, g.Branch, w.Mem, w.Branch)
				}
			}
		}
	}
}
