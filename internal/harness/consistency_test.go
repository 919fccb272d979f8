package harness

import (
	"context"
	"testing"

	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestCollectorsMatchSimulatorCounts pins a structural invariant the
// model depends on: the cache/TLB/branch event counts collected by the
// profiling-side collectors must be exactly the counts the detailed
// simulator observes (same trace, same configuration), because the
// model charges penalties for precisely those events.
func TestCollectorsMatchSimulatorCounts(t *testing.T) {
	cfg := uarch.Default()
	for _, name := range []string{"sha", "dijkstra", "tiff2bw", "lbm_like"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			pw := MustProfileProgram(spec.Build())
			ms, bs, err := MachineStatsCtx(context.Background(), pw.Trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			v, err := pw.Validate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim := v.Sim
			if sim.Cache.DL1Misses != ms.DL1Misses || sim.Cache.DL2Misses != ms.DL2Misses {
				t.Errorf("D-miss counts differ: sim %d/%d vs collector %d/%d",
					sim.Cache.DL1Misses, sim.Cache.DL2Misses, ms.DL1Misses, ms.DL2Misses)
			}
			if sim.Cache.IL1Misses != ms.IL1Misses || sim.Cache.IL2Misses != ms.IL2Misses {
				t.Errorf("I-miss counts differ: sim %d/%d vs collector %d/%d",
					sim.Cache.IL1Misses, sim.Cache.IL2Misses, ms.IL1Misses, ms.IL2Misses)
			}
			if sim.Cache.DTLBMisses != ms.DTLBMisses || sim.Cache.ITLBMisses != ms.ITLBMisses {
				t.Errorf("TLB counts differ: sim %d/%d vs collector %d/%d",
					sim.Cache.ITLBMisses, sim.Cache.DTLBMisses, ms.ITLBMisses, ms.DTLBMisses)
			}
			if sim.Mispredicts != bs.Mispredicts {
				t.Errorf("mispredicts differ: sim %d vs collector %d", sim.Mispredicts, bs.Mispredicts)
			}
			if sim.TakenBubbles != bs.TakenBubbles() {
				t.Errorf("taken bubbles differ: sim %d vs collector %d", sim.TakenBubbles, bs.TakenBubbles())
			}
		})
	}
}

// TestProfileOnceSufficesAcrossWidths verifies the paper's central
// workflow property: the same Profiled value serves every design
// point — predictions must depend only on (profile, machine stats),
// not on hidden state accumulated across Predict calls.
func TestProfileOnceSufficesAcrossWidths(t *testing.T) {
	spec, err := workloads.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	cfg := uarch.Default()
	first := make(map[int]float64)
	for round := 0; round < 2; round++ {
		for w := 1; w <= 4; w++ {
			st, err := pw.PredictCtx(context.Background(), cfg.WithWidth(w))
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[w] = st.CPI()
			} else if st.CPI() != first[w] {
				t.Errorf("W=%d: prediction changed across calls: %f vs %f", w, st.CPI(), first[w])
			}
		}
	}
	// Wider cannot be slower according to the base term; total CPI may
	// cross slightly, but cycles at W=4 must undercut W=1 for gsm_c.
	if !(first[4] < first[1]) {
		t.Errorf("CPI at W=4 (%f) not below W=1 (%f)", first[4], first[1])
	}
}

func TestValidationAccessors(t *testing.T) {
	v := Validation{ModelCPI: 1.1, SimCPI: 1.0}
	if e := v.AbsErr(); e < 0.0999 || e > 0.1001 {
		t.Errorf("AbsErr = %f", e)
	}
	if (Validation{}).AbsErr() != 0 {
		t.Error("zero validation AbsErr not 0")
	}
}

func TestProfileProgramErrors(t *testing.T) {
	spec, _ := workloads.ByName("sha")
	p := spec.Build()
	p.MemWords = 0 // break it
	if _, err := ProfileProgram(p); err == nil {
		t.Error("broken program profiled without error")
	}
}
