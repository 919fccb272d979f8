package pipeline

import (
	"testing"

	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/uarch"
)

// testCfg returns the default configuration with the given width and
// front-end depth.
func testCfg(w, d int) uarch.Config {
	cfg := uarch.Default()
	cfg.Width = w
	cfg.FrontEndDepth = d
	return cfg
}

// coldCost returns the unavoidable cold-start cycles of a run: every
// cold I/D block comes from memory and every first page touch walks
// the TLB.
func coldCost(cfg uarch.Config, res Result) int64 {
	c := res.Cache
	return (c.IL1Misses-c.IL2Misses)*int64(cfg.L2HitCycles()) +
		c.IL2Misses*int64(cfg.L2MissCycles()) +
		(c.DL1Misses-c.DL2Misses)*int64(cfg.L2HitCycles()) +
		c.DL2Misses*int64(cfg.L2MissCycles()) +
		(c.ITLBMisses+c.DTLBMisses)*int64(cfg.TLBWalkCycles())
}

// traceOf runs a program and records its trace.
func traceOf(t *testing.T, p *program.Program) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder()
	if _, err := funcsim.RunProgram(p, b); err != nil {
		t.Fatal(err)
	}
	return b.Trace()
}

// straightline builds n independent unit-latency instructions.
func straightline(n int) *program.Program {
	p := program.New("straight", 64)
	b := p.Block("main")
	for i := 0; i < n; i++ {
		b.Li(1, int64(i)) // no inter-instruction read dependencies
	}
	b.Halt()
	return p
}

func TestIdealThroughput(t *testing.T) {
	// N independent instructions on a W-wide machine: after the fill,
	// execute admits W per cycle; only cold misses deviate.
	const n = 4096
	tr := traceOf(t, straightline(n))
	for _, w := range []int{1, 2, 4} {
		cfg := testCfg(w, 2)
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ideal := int64(n/w) + coldCost(cfg, res)
		if res.Cycles < int64(n/w) || res.Cycles > ideal+16 {
			t.Errorf("W=%d: cycles = %d, want within [%d, %d]", w, res.Cycles, n/w, ideal+16)
		}
	}
}

func TestWidthMonotone(t *testing.T) {
	tr := traceOf(t, straightline(4096))
	var prev int64 = 1 << 62
	for _, w := range []int{1, 2, 3, 4} {
		res, err := Simulate(tr, testCfg(w, 2))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles > prev {
			t.Errorf("W=%d slower than W-1 on independent code (%d > %d)", w, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// chain builds n serially dependent unit instructions (d=1 chain).
func chain(n int) *program.Program {
	p := program.New("chain", 64)
	b := p.Block("main")
	b.Li(1, 1)
	for i := 0; i < n; i++ {
		b.Addi(1, 1, 1)
	}
	b.Halt()
	return p
}

func TestSerialChainRunsAtOneIPC(t *testing.T) {
	// Fully dependent instructions execute one per cycle regardless of
	// width: back-to-back forwarding, no faster, no slower.
	const n = 2048
	tr := traceOf(t, chain(n))
	res, err := Simulate(tr, testCfg(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(n), int64(n)+coldCost(testCfg(4, 2), res)+16
	if res.Cycles < lo || res.Cycles > hi {
		t.Errorf("cycles = %d, want within [%d, %d] (1 IPC)", res.Cycles, lo, hi)
	}
	// Every cycle still admits exactly one instruction, so no cycle is
	// a full dependency stall.
	if res.DepStallCycles != 0 {
		t.Errorf("DepStallCycles = %d, want 0 (partial admission every cycle)", res.DepStallCycles)
	}
}

func TestMulBlocksExecute(t *testing.T) {
	// Back-to-back muls: each occupies execute for MulLatency cycles.
	p := program.New("muls", 64)
	b := p.Block("main")
	b.Li(1, 3)
	b.Li(2, 5)
	const n = 512
	for i := 0; i < n; i++ {
		b.Mul(3, 1, 2)
	}
	b.Halt()
	tr := traceOf(t, p)
	cfg := testCfg(4, 2)
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n * cfg.MulLatency)
	// Cold fetch misses partially overlap the blocked execute stage,
	// so the upper bound includes them; the lower bound does not.
	if res.Cycles < want || res.Cycles > want+coldCost(cfg, res)+32 {
		t.Errorf("cycles = %d, want ≈ %d (+cold)", res.Cycles, want)
	}
	if res.LLBlocks != n {
		t.Errorf("LLBlocks = %d, want %d", res.LLBlocks, n)
	}
}

func TestDivCostsMoreThanMul(t *testing.T) {
	mk := func(div bool) *trace.Trace {
		p := program.New("ll", 64)
		b := p.Block("main")
		b.Li(1, 30)
		b.Li(2, 5)
		for i := 0; i < 256; i++ {
			if div {
				b.Div(3, 1, 2)
			} else {
				b.Mul(3, 1, 2)
			}
		}
		b.Halt()
		tb := trace.NewBuilder()
		if _, err := funcsim.RunProgram(p, tb); err != nil {
			t.Fatal(err)
		}
		return tb.Trace()
	}
	cfg := testCfg(4, 2)
	mres, _ := Simulate(mk(false), cfg)
	dres, _ := Simulate(mk(true), cfg)
	wantRatio := float64(cfg.DivLatency) / float64(cfg.MulLatency)
	// Compare net of cold-start costs, which are identical in shape.
	ratio := float64(dres.Cycles-coldCost(cfg, dres)) / float64(mres.Cycles-coldCost(cfg, mres))
	if ratio < wantRatio*0.6 || ratio > wantRatio*1.4 {
		t.Errorf("div/mul cycle ratio = %.2f, want ≈ %.2f", ratio, wantRatio)
	}
}

func TestLoadUseBubble(t *testing.T) {
	// Alternating load → use pairs at W=1: the consumer waits one
	// extra cycle for the value from the memory stage, so each pair
	// costs 3 cycles instead of 2 (steady state, after cold misses).
	p := program.New("loaduse", 64)
	p.SetData(8, 7)
	b := p.Block("main")
	const n = 512
	for i := 0; i < n; i++ {
		b.Ld(1, 0, 8)
		b.Add(2, 1, 1)
	}
	b.Halt()
	tr := traceOf(t, p)
	cfg := testCfg(1, 2)
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(3 * n)
	if res.Cycles < want-8 || res.Cycles > want+coldCost(cfg, res)+32 {
		t.Errorf("cycles = %d, want ≈ %d (3 per load-use pair, +cold)", res.Cycles, want)
	}
}

func TestTakenBranchBubbleVisibleWhenNotStalled(t *testing.T) {
	// Loop body: counter update first, then eight independent
	// instructions, then the backedge (dep distance 9, no stall). The
	// ten instructions form three fetch groups (4+4+2) = 3 admission
	// cycles, plus the taken-redirect bubble = 4 cycles per iteration.
	p := program.New("loop", 64)
	b := p.Block("init")
	b.Li(1, 0)
	b.Li(2, 3000)
	b = p.Block("loop")
	b.Addi(1, 1, 1)
	for r := 3; r <= 10; r++ {
		b.Li(isa.Reg(r), int64(r))
	}
	b.Blt(1, 2, "loop")
	b = p.Block("end")
	b.Halt()
	tr := traceOf(t, p)
	cfg := testCfg(4, 2)
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	iters := int64(3000)
	want := 4 * iters
	if res.Cycles < want-200 || res.Cycles > want+coldCost(cfg, res)+400 {
		t.Errorf("cycles = %d, want ≈ %d (4 per iteration)", res.Cycles, want)
	}
	if res.TakenBubbles < iters-100 {
		t.Errorf("TakenBubbles = %d, want ≈ %d", res.TakenBubbles, iters)
	}
}

// TestTakenBubbleHiddenBehindDependencyStall documents the overlap the
// first-order model ignores: in a 2-instruction dependent loop the
// redirect bubble dissolves behind the dependency stall, so iterations
// cost 2 cycles, not 3.
func TestTakenBubbleHiddenBehindDependencyStall(t *testing.T) {
	p := program.New("tight", 64)
	b := p.Block("init")
	b.Li(1, 0)
	b.Li(2, 3000)
	b = p.Block("loop")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b = p.Block("end")
	b.Halt()
	tr := traceOf(t, p)
	cfg := testCfg(4, 2)
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	iters := int64(3000)
	want := 2 * iters
	if res.Cycles < want-100 || res.Cycles > want+coldCost(cfg, res)+200 {
		t.Errorf("cycles = %d, want ≈ %d (bubble hidden)", res.Cycles, want)
	}
}

func TestMispredictPenaltyScalesWithDepth(t *testing.T) {
	// A data-dependent 50/50 branch keeps any predictor near 50%
	// mispredicts; the flush penalty grows with front-end depth, so
	// deeper pipelines must take measurably more cycles.
	p := program.New("noisy", 4096)
	r := int64(12345)
	vals := make([]int64, 1024)
	for i := range vals {
		r = r*6364136223846793005 + 1442695040888963407
		vals[i] = (r >> 33) & 1
	}
	p.SetDataSlice(0, vals)
	b := p.Block("init")
	b.Li(1, 0)
	b.Li(2, 1024)
	b = p.Block("loop")
	b.Ld(3, 1, 0)
	b.Beq(3, 0, "skip")
	b.Addi(4, 4, 1)
	b = p.Block("skip")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b = p.Block("end")
	b.Halt()
	tr := traceOf(t, p)

	shallow, err := Simulate(tr, testCfg(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Simulate(tr, testCfg(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Mispredicts == 0 {
		t.Fatal("expected mispredictions on random branch")
	}
	extra := deep.Cycles - shallow.Cycles
	// Six extra front-end stages cost about 6 cycles per mispredict.
	wantExtra := 6 * shallow.Mispredicts
	if extra < wantExtra/2 || extra > wantExtra*2 {
		t.Errorf("depth cost = %d cycles for %d mispredicts, want ≈ %d",
			extra, shallow.Mispredicts, wantExtra)
	}
}

func TestDCacheMissBlocksMemory(t *testing.T) {
	// Strided loads that touch a new block every time: each miss
	// blocks the memory stage for at least the L2 hit latency.
	p := program.New("misses", 300000)
	b := p.Block("init")
	b.Li(1, 0)
	b.Li(2, 4096)
	b = p.Block("loop")
	b.Shli(3, 1, 6)
	b.Ld(4, 3, 0)
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	tr := traceOf(t, p)
	cfg := testCfg(4, 2)
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.DL1Misses < 4000 {
		t.Fatalf("expected ~4096 D misses, got %d", res.Cache.DL1Misses)
	}
	minCycles := res.Cache.DL1Misses * int64(cfg.L2HitCycles())
	if res.Cycles < minCycles {
		t.Errorf("cycles = %d < miss-serialized bound %d", res.Cycles, minCycles)
	}
}

func TestEmptyTrace(t *testing.T) {
	res, err := Simulate(nil, testCfg(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 || res.Instructions != 0 {
		t.Errorf("empty trace: %+v", res)
	}
	if _, err := SimulateProgramTrace(nil, testCfg(4, 2)); err == nil {
		t.Error("SimulateProgramTrace accepted empty trace")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := testCfg(4, 2)
	cfg.Width = 99
	if _, err := Simulate(tracetest.Of(tracetest.Inst{}), cfg); err == nil {
		t.Error("invalid width accepted")
	}
}

func TestDeterminism(t *testing.T) {
	tr := traceOf(t, chain(500))
	cfg := testCfg(3, 4)
	a, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic simulation: %+v vs %+v", a, b)
	}
}

func TestCPIHelper(t *testing.T) {
	r := Result{Cycles: 100, Instructions: 50}
	if r.CPI() != 2 {
		t.Errorf("CPI = %f", r.CPI())
	}
	if (Result{}).CPI() != 0 {
		t.Error("empty CPI not 0")
	}
}
