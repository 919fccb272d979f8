package randprog

import (
	"context"
	"testing"

	"repro/internal/compiler"
	"repro/internal/funcsim"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/uarch"
)

const fuzzSeeds = 30

// fingerprint runs a program and returns its published results
// (the first 8 arena words, written by the done block).
func fingerprint(p *program.Program) ([8]int64, error) {
	m, err := funcsim.New(p)
	if err != nil {
		return [8]int64{}, err
	}
	m.MaxInstructions = 3_000_000
	if _, err := m.RunCtx(context.Background(), nil); err != nil {
		return [8]int64{}, err
	}
	var out [8]int64
	copy(out[:], m.Mem[:8])
	return out, nil
}

// TestGeneratedProgramsTerminate: every generated program halts within
// its structural bound.
func TestGeneratedProgramsTerminate(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		p := Generate(Default(seed))
		m, err := funcsim.New(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m.MaxInstructions = 3_000_000
		if _, err := m.RunCtx(context.Background(), nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestCompilerPassesPreserveRandomPrograms fuzzes the scheduler and
// unroller: same final memory for every optimization level.
func TestCompilerPassesPreserveRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		src := Generate(Default(seed))
		ref, err := fingerprint(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, lvl := range compiler.Levels() {
			opt := compiler.Optimize(Generate(Default(seed)), lvl)
			got, err := fingerprint(opt)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, lvl, err)
			}
			if got != ref {
				t.Errorf("seed %d: %s changed behavior", seed, lvl)
			}
		}
	}
}

// TestPipelineBoundsOnRandomPrograms: the detailed simulator never
// deadlocks, is deterministic, and lands between the throughput bound
// N/W and a generous serialization bound.
func TestPipelineBoundsOnRandomPrograms(t *testing.T) {
	cfg := uarch.Default()
	for seed := int64(100); seed < 100+fuzzSeeds; seed++ {
		p := Generate(Default(seed))
		tb := trace.NewBuilder()
		if _, err := funcsim.RunProgram(p, tb); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr := tb.Trace()
		res, err := pipeline.Simulate(tr, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := tr.Len()
		lo := n / int64(cfg.Width)
		hi := n*int64(cfg.DivLatency) + (res.Cache.DL1Misses+res.Cache.IL1Misses)*int64(cfg.L2MissCycles()) +
			(res.Cache.ITLBMisses+res.Cache.DTLBMisses)*int64(cfg.TLBWalkCycles()) +
			res.Mispredicts*int64(cfg.FrontEndDepth+1) + res.TakenBubbles + 64
		if res.Cycles < lo || res.Cycles > hi {
			t.Errorf("seed %d: cycles %d outside [%d, %d]", seed, res.Cycles, lo, hi)
		}
		res2, err := pipeline.Simulate(tr, cfg)
		if err != nil || res2 != res {
			t.Errorf("seed %d: non-deterministic simulation", seed)
		}
	}
}

// TestModelTracksSimulatorOnRandomPrograms: even on adversarial random
// code the first-order model stays within a loose band of the detailed
// simulator.
func TestModelTracksSimulatorOnRandomPrograms(t *testing.T) {
	cfg := uarch.Default()
	for seed := int64(200); seed < 200+fuzzSeeds; seed++ {
		pw, err := harness.ProfileProgram(Generate(Default(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v, err := pw.Validate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.AbsErr() > 0.5 {
			t.Errorf("seed %d: model error %.1f%% (model %.3f sim %.3f)",
				seed, 100*v.AbsErr(), v.ModelCPI, v.SimCPI)
		}
	}
}

// TestProfilerAccountsEveryInstruction: the profile's N and class
// counts must add up exactly on random programs.
func TestProfilerAccountsEveryInstruction(t *testing.T) {
	for seed := int64(300); seed < 300+fuzzSeeds; seed++ {
		p := Generate(Default(seed))
		n, err := funcsim.RunProgram(p, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pw, err := harness.ProfileProgram(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof := pw.Prof
		if prof.N != n {
			t.Errorf("seed %d: profile N=%d, executed %d", seed, prof.N, n)
		}
		var byClass int64
		for _, c := range prof.ByClass {
			byClass += c
		}
		if byClass != n {
			t.Errorf("seed %d: class counts sum to %d, want %d", seed, byClass, n)
		}
		deps := prof.DepsUnit.Total() + prof.DepsLL.Total() + prof.DepsLd.Total()
		if deps > n {
			t.Errorf("seed %d: more dependencies (%d) than instructions (%d)", seed, deps, n)
		}
	}
}
