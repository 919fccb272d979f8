package compiler

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// finalState runs a program and returns (dynamic count, first 32 memory
// words) as a behavioral fingerprint.
func finalState(t *testing.T, p *program.Program) (int64, [32]int64) {
	t.Helper()
	m, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var mem [32]int64
	copy(mem[:], m.Mem[:32])
	return n, mem
}

// TestPassesPreserveSemantics is the central compiler property: every
// optimization level computes the same result on every workload.
func TestPassesPreserveSemantics(t *testing.T) {
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if spec.Name == "mcf_like" || spec.Name == "omnetpp_like" {
				t.Skip("large build; covered by the fast kernels")
			}
			_, ref := finalState(t, spec.Build())
			for _, lvl := range Levels() {
				opt := Optimize(spec.Build(), lvl)
				_, got := finalState(t, opt)
				if got != ref {
					t.Errorf("%s changed program behavior", lvl)
				}
			}
		})
	}
}

func TestSchedulePreservesRegionsAndControl(t *testing.T) {
	// Scheduling may reorder only within control-free regions: for each
	// block, the multiset of instructions between control instructions
	// (and the control instructions themselves, in order) must match.
	for _, name := range []string{"sha", "gsm_c", "jpeg_c", "tiffdither", "qsort"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		src := spec.Build()
		q := ScheduleProgram(src)
		for bi, blk := range src.Blocks {
			got := regionFingerprint(q.Blocks[bi].Insts)
			want := regionFingerprint(blk.Insts)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: region count %d != %d", name, blk.Label, len(got), len(want))
			}
			for ri := range want {
				if got[ri] != want[ri] {
					t.Errorf("%s/%s region %d: content changed", name, blk.Label, ri)
				}
			}
		}
	}
}

// regionFingerprint splits a block at control instructions and returns
// an order-insensitive fingerprint per region plus the control ops.
func regionFingerprint(insts []program.Inst) []string {
	var out []string
	var region []string
	flush := func() {
		sort.Strings(region)
		out = append(out, strings.Join(region, ";"))
		region = region[:0]
	}
	for _, in := range insts {
		if isControl(in.Op) {
			flush()
			out = append(out, fmt.Sprintf("ctl:%v->%s", in.Op, in.Label))
			continue
		}
		region = append(region, fmt.Sprintf("%v:%d,%d,%d,%d", in.Op, in.Dst, in.Src1, in.Src2, in.Imm))
	}
	flush()
	return out
}

func TestScheduleIncreasesDependencyDistance(t *testing.T) {
	// The whole point of the pass: mean producer→consumer distance in
	// scheduled code must not be smaller than in source order, for a
	// block with two independent chains.
	p := program.New("t", 16)
	b := p.Block("main")
	// Chain A: r1 -> r2 -> r3; chain B: r4 -> r5 -> r6, interleavable.
	b.Li(1, 1)
	b.Addi(2, 1, 1)
	b.Addi(3, 2, 1)
	b.Li(4, 2)
	b.Addi(5, 4, 1)
	b.Addi(6, 5, 1)
	b.Halt()

	q := ScheduleProgram(p)
	dist := func(blk *program.Block) int {
		lastWrite := map[isa.Reg]int{}
		sum := 0
		for i, in := range blk.Insts {
			for _, r := range instSrcs(in) {
				if w, ok := lastWrite[r]; ok {
					sum += i - w
				}
			}
			if dst, ok := instDst(in); ok {
				lastWrite[dst] = i
			}
		}
		return sum
	}
	before := dist(p.Blocks[0])
	after := dist(q.Blocks[0])
	if after <= before {
		t.Errorf("scheduled distance sum %d not larger than source %d", after, before)
	}
}

func TestUnrollReducesDynamicInstructions(t *testing.T) {
	for _, name := range []string{"lame", "gsm_c", "sha", "jpeg_c"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		n0, _ := finalState(t, spec.Build())
		n1, _ := finalState(t, UnrollProgram(spec.Build(), DefaultUnrollFactor))
		if n1 >= n0 {
			t.Errorf("%s: unrolled N=%d not below source N=%d", name, n1, n0)
		}
	}
}

func TestUnrollFactorFor(t *testing.T) {
	cases := []struct {
		trip int64
		req  int
		want int
	}{
		{4, 4, 4}, {8, 4, 4}, {6, 4, 3}, {2, 4, 2}, {5, 4, 1}, {3, 4, 3}, {1, 4, 1},
	}
	for _, c := range cases {
		if got := unrollFactorFor(c.trip, c.req); got != c.want {
			t.Errorf("unrollFactorFor(%d, %d) = %d, want %d", c.trip, c.req, got, c.want)
		}
	}
}

func TestUnrollRequiresCleanSelfLoop(t *testing.T) {
	// A loop with internal control flow must be left untouched.
	p := program.New("t", 64)
	b := p.Block("init")
	b.Li(1, 0)
	b.Li(2, 8)
	bl := p.LoopBlockN("loop", "loop", 4)
	bl.Addi(1, 1, 1)
	bl.Beq(1, 2, "out") // internal exit: not unrollable
	bl.Blt(1, 2, "loop")
	b = p.Block("out")
	b.Halt()
	before := p.StaticLen()
	q := UnrollProgram(p, 4)
	if q.StaticLen() != before {
		t.Error("unroller replicated a loop with internal control flow")
	}
}

func TestUnrollCoalescesInduction(t *testing.T) {
	// A pure streaming loop: ld/st with induction base, all uses are
	// addressing. Unroll(4) must leave exactly one addi per unrolled
	// body and adjust displacements.
	p := program.New("t", 256)
	p.SetDataSlice(0, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	b := p.Block("init")
	b.Li(1, 0)
	b.Li(2, 8)
	bl := p.LoopBlockN("loop", "loop", 4)
	bl.Ld(3, 1, 0)
	bl.St(3, 1, 100)
	bl.Addi(1, 1, 1)
	bl.Blt(1, 2, "loop")
	b = p.Block("end")
	b.Halt()

	n0, ref := finalState(t, p)
	q := UnrollProgram(p, 4)
	loop := q.FindBlock("loop")
	addis := 0
	for _, in := range loop.Insts {
		if in.Op == isa.ADDI && in.Dst == 1 {
			addis++
			if in.Imm != 4 {
				t.Errorf("coalesced induction step = %d, want 4", in.Imm)
			}
		}
	}
	if addis != 1 {
		t.Errorf("induction updates after coalescing = %d, want 1", addis)
	}
	n1, got := finalState(t, q)
	if got != ref {
		t.Error("coalesced unroll changed behavior")
	}
	// 8 iterations × 4 insts = 32 dynamic, unrolled: 2 × (8+1+1) = 20.
	if n1 >= n0 {
		t.Errorf("unrolled N=%d not below N=%d", n1, n0)
	}
}

func TestOptimizeLevels(t *testing.T) {
	spec, _ := workloads.ByName("sha")
	src := spec.Build()
	for _, lvl := range Levels() {
		if lvl.String() == "" {
			t.Error("unnamed level")
		}
		out := Optimize(src, lvl)
		if out == src {
			t.Errorf("%v returned the input program", lvl)
		}
	}
	if Level(99).String() == "" {
		t.Error("unknown level string empty")
	}
	// The input must be untouched by all passes.
	spec2, _ := workloads.ByName("sha")
	fresh := spec2.Build()
	if src.StaticLen() != fresh.StaticLen() {
		t.Error("Optimize mutated its input")
	}
}
