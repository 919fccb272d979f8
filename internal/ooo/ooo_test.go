package ooo

import (
	"context"
	"testing"

	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/trace/tracetest"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.ROB = 1
	if err := bad.Validate(); err == nil {
		t.Error("ROB smaller than width accepted")
	}
	bad = DefaultConfig()
	bad.MSHRs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MSHRs accepted")
	}
}

// consume feeds recs to col as one trace, chunk by chunk.
func consume(t *testing.T, col *Collector, recs []tracetest.Inst) {
	t.Helper()
	if err := tracetest.Of(recs...).EachChunk(context.Background(), col.ConsumeChunk); err != nil {
		t.Fatal(err)
	}
}

// missStream feeds the collector n loads with the given stride (words)
// and optional serial dependence (each load's address register written
// by the previous load).
func missStream(t *testing.T, n int, strideWords int64, serial bool) Stats {
	t.Helper()
	col, err := NewCollector(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]tracetest.Inst, n)
	for i := range recs {
		d := tracetest.Inst{
			Seq: int64(i), PC: int64(i % 64),
			Op: isa.LD, Class: isa.ClassLoad, IsLoad: true,
			// Spread far beyond the L2 so every new block misses.
			EffAddr: int64(i) * strideWords,
			Dst:     isa.Reg(1), HasDst: true,
		}
		if serial {
			d.Src[0] = isa.Reg(1)
			d.NumSrc = 1
		}
		recs[i] = d
	}
	consume(t, col, recs)
	return col.Result()
}

func TestMLPSerialChainIsOne(t *testing.T) {
	// Pointer chasing: every load's address depends on the previous
	// missing load; no overlap possible.
	s := missStream(t, 500, 1<<20, true)
	if s.L2LoadMisses < 400 {
		t.Fatalf("expected many misses, got %d", s.L2LoadMisses)
	}
	if got := s.MLP(); got > 1.01 {
		t.Errorf("serial MLP = %f, want 1", got)
	}
}

func TestMLPIndependentStreamsCapped(t *testing.T) {
	// Independent missing loads cluster up to the MSHR limit.
	s := missStream(t, 500, 1<<20, false)
	cfg := DefaultConfig()
	got := s.MLP()
	if got < float64(cfg.MSHRs)*0.8 {
		t.Errorf("independent MLP = %f, want near MSHR cap %d", got, cfg.MSHRs)
	}
	if got > float64(cfg.MSHRs)+0.01 {
		t.Errorf("MLP = %f exceeds MSHR cap %d", got, cfg.MSHRs)
	}
}

func TestMLPWindowLimit(t *testing.T) {
	// Misses farther apart than the ROB cannot overlap. Interleave each
	// missing load with ROB non-memory instructions.
	cfg := DefaultConfig()
	col, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []tracetest.Inst
	for i := 0; i < 100; i++ {
		recs = append(recs, tracetest.Inst{Seq: int64(len(recs)), Op: isa.LD, Class: isa.ClassLoad, IsLoad: true,
			EffAddr: int64(i) << 20, Dst: 1, HasDst: true})
		for j := 0; j < cfg.ROB; j++ {
			recs = append(recs, tracetest.Inst{Seq: int64(len(recs)), Op: isa.ADD, Class: isa.ClassALU, Dst: 2, HasDst: true})
		}
	}
	consume(t, col, recs)
	if got := col.Result().MLP(); got > 1.01 {
		t.Errorf("window-separated MLP = %f, want 1", got)
	}
}

func TestPredictComponents(t *testing.T) {
	cfg := DefaultConfig()
	st, err := Predict(1000, Stats{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.CPIOf(Base) != 0.25 {
		t.Errorf("base = %f, want 0.25", st.CPIOf(Base))
	}
	if st.CPIOf(Deps) != 0 || st.CPIOf(MulDiv) != 0 {
		t.Error("deps/muldiv must be hidden on the OoO core")
	}
	// Branch resolution makes mispredictions cost more than the
	// in-order D + (W-1)/2W.
	st2, _ := Predict(1000, Stats{Mispredict: 10}, cfg)
	perMiss := (st2.Total() - st.Total()) / 10
	inOrder := float64(cfg.Base.FrontEndDepth) + 3.0/8
	if perMiss <= inOrder {
		t.Errorf("OoO mispredict cost %f not above in-order %f", perMiss, inOrder)
	}
}

func TestPredictErrors(t *testing.T) {
	if _, err := Predict(0, Stats{}, DefaultConfig()); err == nil {
		t.Error("zero N accepted")
	}
	bad := DefaultConfig()
	bad.MSHRs = 0
	if _, err := Predict(10, Stats{}, bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStackHelpers(t *testing.T) {
	s := &Stack{N: 100}
	s.Cycles[Base] = 50
	if s.CPI() != 0.5 || s.Total() != 50 {
		t.Errorf("stack accessors: %+v", s)
	}
	for c := Component(0); c < NumComponents; c++ {
		if c.String() == "" {
			t.Errorf("component %d unnamed", c)
		}
	}
}

// TestOoOFasterThanInOrderOnRealWorkloads ties the comparison together:
// on every Figure 7 benchmark the out-of-order CPI must be at or below
// the in-order CPI (it hides everything the in-order core stalls on).
func TestOoOFasterThanInOrderOnRealWorkloads(t *testing.T) {
	inCfg := uarch.Default()
	ooCfg := DefaultConfig()
	for _, name := range []string{"dijkstra", "tiff2bw", "lame"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pw := harness.MustProfileProgram(spec.Build())
		inStack, err := pw.PredictCtx(context.Background(), inCfg)
		if err != nil {
			t.Fatal(err)
		}
		col, err := NewCollector(ooCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.Trace.EachChunk(context.Background(), col.ConsumeChunk); err != nil {
			t.Fatal(err)
		}
		ooStack, err := Predict(pw.Prof.N, col.Result(), ooCfg)
		if err != nil {
			t.Fatal(err)
		}
		if ooStack.CPI() > inStack.CPI() {
			t.Errorf("%s: OoO CPI %.3f above in-order %.3f", name, ooStack.CPI(), inStack.CPI())
		}
	}
}
