package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestValidationDefaultConfig is the Figure 3 experiment in test form:
// the mechanistic model must track the detailed simulator closely on
// the default configuration for every MiBench-like benchmark.
func TestValidationDefaultConfig(t *testing.T) {
	cfg := uarch.Default()
	var sumErr float64
	n := 0
	for _, spec := range workloads.MiBench() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			pw := MustProfileProgram(spec.Build())
			v, err := pw.Validate(cfg)
			if err != nil {
				t.Fatalf("validate: %v", err)
			}
			t.Logf("%-14s N=%7d model=%.4f sim=%.4f err=%.2f%%",
				spec.Name, pw.Prof.N, v.ModelCPI, v.SimCPI, 100*v.AbsErr())
			if v.AbsErr() > 0.15 {
				t.Errorf("model error %.1f%% exceeds 15%% (model %.4f vs sim %.4f)",
					100*v.AbsErr(), v.ModelCPI, v.SimCPI)
			}
			sumErr += v.AbsErr()
			n++
		})
	}
	if n > 0 {
		t.Logf("average error %.2f%% over %d benchmarks", 100*sumErr/float64(n), n)
	}
}

// TestProfileRejectsOutOfRangeRegister checks that a hand-built program
// naming a register beyond the register file fails profiling with
// Build's error instead of panicking in the interpreter.
func TestProfileRejectsOutOfRangeRegister(t *testing.T) {
	p := program.New("bad_register", 16)
	p.Block("entry").Add(3, isa.Reg(200), 1).Halt()
	if _, err := ProfileProgram(p); err == nil || !strings.Contains(err.Error(), "register") {
		t.Errorf("ProfileProgram: err = %v, want an out-of-range register error", err)
	}
	if _, err := ProfileProgramSandboxedCtx(context.Background(), p, 0, 0); err == nil || !strings.Contains(err.Error(), "register") {
		t.Errorf("ProfileProgramSandboxedCtx: err = %v, want an out-of-range register error", err)
	}
}
