package funcsim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// run executes a freshly built single-block program and returns the
// machine for state inspection.
func run(t *testing.T, build func(b *program.Builder)) *Machine {
	t.Helper()
	p := program.New("t", 256)
	b := p.Block("main")
	build(b)
	b.Halt()
	m := MustNew(p)
	if _, err := m.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *program.Builder)
		reg   isa.Reg
		want  int64
	}{
		{"add", func(b *program.Builder) { b.Li(1, 3).Li(2, 4).Add(3, 1, 2) }, 3, 7},
		{"sub", func(b *program.Builder) { b.Li(1, 3).Li(2, 4).Sub(3, 1, 2) }, 3, -1},
		{"and", func(b *program.Builder) { b.Li(1, 6).Li(2, 3).And(3, 1, 2) }, 3, 2},
		{"or", func(b *program.Builder) { b.Li(1, 6).Li(2, 3).Or(3, 1, 2) }, 3, 7},
		{"xor", func(b *program.Builder) { b.Li(1, 6).Li(2, 3).Xor(3, 1, 2) }, 3, 5},
		{"shl", func(b *program.Builder) { b.Li(1, 3).Li(2, 4).Shl(3, 1, 2) }, 3, 48},
		{"shr", func(b *program.Builder) { b.Li(1, -8).Li(2, 62).Shr(3, 1, 2) }, 3, 3},
		{"sra", func(b *program.Builder) { b.Li(1, -8).Li(2, 2).Sra(3, 1, 2) }, 3, -2},
		{"slt true", func(b *program.Builder) { b.Li(1, -1).Li(2, 0).Slt(3, 1, 2) }, 3, 1},
		{"slt false", func(b *program.Builder) { b.Li(1, 5).Li(2, 0).Slt(3, 1, 2) }, 3, 0},
		{"addi", func(b *program.Builder) { b.Li(1, 3).Addi(3, 1, -5) }, 3, -2},
		{"andi", func(b *program.Builder) { b.Li(1, 7).Andi(3, 1, 5) }, 3, 5},
		{"ori", func(b *program.Builder) { b.Li(1, 8).Ori(3, 1, 5) }, 3, 13},
		{"xori", func(b *program.Builder) { b.Li(1, 6).Xori(3, 1, 3) }, 3, 5},
		{"shli", func(b *program.Builder) { b.Li(1, 3).Shli(3, 1, 4) }, 3, 48},
		{"shri", func(b *program.Builder) { b.Li(1, 16).Shri(3, 1, 2) }, 3, 4},
		{"srai", func(b *program.Builder) { b.Li(1, -16).Srai(3, 1, 2) }, 3, -4},
		{"slti", func(b *program.Builder) { b.Li(1, 3).Slti(3, 1, 4) }, 3, 1},
		{"lui", func(b *program.Builder) { b.Li(3, 12345) }, 3, 12345},
		{"mul", func(b *program.Builder) { b.Li(1, -3).Li(2, 4).Mul(3, 1, 2) }, 3, -12},
		{"div", func(b *program.Builder) { b.Li(1, 17).Li(2, 5).Div(3, 1, 2) }, 3, 3},
		{"div neg", func(b *program.Builder) { b.Li(1, -17).Li(2, 5).Div(3, 1, 2) }, 3, -3},
		{"div by zero", func(b *program.Builder) { b.Li(1, 17).Div(3, 1, 0) }, 3, 0},
		{"rem", func(b *program.Builder) { b.Li(1, 17).Li(2, 5).Rem(3, 1, 2) }, 3, 2},
		{"rem by zero", func(b *program.Builder) { b.Li(1, 17).Rem(3, 1, 0) }, 3, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := run(t, c.build)
			if got := m.Regs[c.reg]; got != c.want {
				t.Errorf("%s = %d, want %d", c.reg, got, c.want)
			}
		})
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	m := run(t, func(b *program.Builder) {
		b.Li(0, 99)
		b.Addi(0, 0, 5)
		b.Add(1, 0, 0)
	})
	if m.Regs[0] != 0 {
		t.Errorf("r0 = %d, want 0", m.Regs[0])
	}
	if m.Regs[1] != 0 {
		t.Errorf("r1 = %d, want 0", m.Regs[1])
	}
}

func TestLoadStore(t *testing.T) {
	m := run(t, func(b *program.Builder) {
		b.Li(1, 7)
		b.Li(2, 10)
		b.St(1, 2, 5)  // mem[15] = 7
		b.Ld(3, 2, 5)  // r3 = mem[15]
		b.Ld(4, 0, 15) // r4 = mem[15]
	})
	if m.Mem[15] != 7 || m.Regs[3] != 7 || m.Regs[4] != 7 {
		t.Errorf("mem[15]=%d r3=%d r4=%d, want all 7", m.Mem[15], m.Regs[3], m.Regs[4])
	}
}

func TestDataInitialization(t *testing.T) {
	p := program.New("t", 64)
	p.SetDataSlice(8, []int64{5, 6})
	b := p.Block("main")
	b.Ld(1, 0, 8)
	b.Ld(2, 0, 9)
	b.Halt()
	m := MustNew(p)
	if _, err := m.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if m.Regs[1] != 5 || m.Regs[2] != 6 {
		t.Errorf("r1=%d r2=%d, want 5 6", m.Regs[1], m.Regs[2])
	}
}

func TestBranchSemantics(t *testing.T) {
	// Count down from 5 with BNE; then exercise BEQ/BLT/BGE arms.
	p := program.New("t", 16)
	b := p.Block("init")
	b.Li(1, 5)
	b.Li(2, 0)
	b = p.Block("loop")
	b.Addi(2, 2, 1)
	b.Addi(1, 1, -1)
	b.Bne(1, 0, "loop")
	b = p.Block("after")
	b.Beq(1, 0, "ok")
	b.Li(3, 111) // skipped
	b = p.Block("ok")
	b.Li(4, -1)
	b.Blt(4, 0, "ok2")
	b.Li(3, 222) // skipped
	b = p.Block("ok2")
	b.Bge(4, 0, "bad")
	b.Li(5, 1)
	b.Halt()
	b = p.Block("bad")
	b.Li(5, 2)
	b.Halt()

	m := MustNew(p)
	if _, err := m.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if m.Regs[2] != 5 {
		t.Errorf("loop iterations = %d, want 5", m.Regs[2])
	}
	if m.Regs[3] != 0 {
		t.Errorf("taken branches executed skipped code (r3=%d)", m.Regs[3])
	}
	if m.Regs[5] != 1 {
		t.Errorf("bge taken when it should not be (r5=%d)", m.Regs[5])
	}
}

func TestJalRecordsReturnAddress(t *testing.T) {
	p := program.New("t", 16)
	b := p.Block("main")
	b.Nop()
	b.Jal(1, "sub") // at index 1; return PC is 2
	b = p.Block("cont")
	b.Halt()
	b = p.Block("sub")
	b.Li(2, 7)
	b.Jmp("cont")
	m := MustNew(p)
	if _, err := m.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if m.Regs[1] != 2 {
		t.Errorf("jal link = %d, want 2", m.Regs[1])
	}
	if m.Regs[2] != 7 {
		t.Errorf("subroutine did not run (r2=%d)", m.Regs[2])
	}
}

func TestOutOfRangeAccessesFail(t *testing.T) {
	t.Run("load", func(t *testing.T) {
		p := program.New("t", 8)
		p.Block("m").Ld(1, 0, 100).Halt()
		m := MustNew(p)
		if _, err := m.RunCtx(context.Background(), nil); err == nil {
			t.Error("out-of-range load succeeded")
		}
	})
	t.Run("store negative", func(t *testing.T) {
		p := program.New("t", 8)
		p.Block("m").Li(1, -3).St(1, 1, 0).Halt()
		m := MustNew(p)
		if _, err := m.RunCtx(context.Background(), nil); err == nil {
			t.Error("negative-address store succeeded")
		}
	})
}

func TestInstructionLimit(t *testing.T) {
	p := program.New("t", 8)
	p.Block("spin").Jmp("spin")
	m := MustNew(p)
	m.MaxInstructions = 100
	_, err := m.RunCtx(context.Background(), nil)
	if !errors.Is(err, ErrMaxInstructions) {
		t.Errorf("err = %v, want ErrMaxInstructions", err)
	}
}

func TestTraceRecords(t *testing.T) {
	p := program.New("t", 32)
	b := p.Block("main")
	b.Li(1, 3)       // seq 0
	b.St(1, 0, 9)    // seq 1
	b.Ld(2, 0, 9)    // seq 2
	b.Beq(1, 2, "x") // seq 3, taken
	b.Nop()
	b = p.Block("x")
	b.Halt()
	tb := trace.NewBuilder()
	n, err := RunProgram(p, tb)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("retired %d, want 4 (HALT not counted)", n)
	}
	ds := tracetest.Records(tb.Trace())
	if !ds[1].IsStore || ds[1].EffAddr != 9 {
		t.Errorf("store record = %+v", ds[1])
	}
	if !ds[2].IsLoad || ds[2].EffAddr != 9 || !ds[2].HasDst || ds[2].Dst != 2 {
		t.Errorf("load record = %+v", ds[2])
	}
	if !ds[3].IsBranch || !ds[3].Taken {
		t.Errorf("branch record = %+v", ds[3])
	}
	if ds[3].NumSrc != 2 {
		t.Errorf("branch sources = %d, want 2", ds[3].NumSrc)
	}
	if ds[3].NextPC != ds[3].Target {
		t.Errorf("taken branch NextPC=%d Target=%d", ds[3].NextPC, ds[3].Target)
	}
	for i, d := range ds {
		if d.Seq != int64(i) {
			t.Errorf("seq %d at position %d", d.Seq, i)
		}
	}
}

// TestRecordedStatic checks, for every opcode and both directions of
// each conditional branch, the dictionary tuple a run records, field by
// field, plus the per-instruction effective address and next PC. The
// instruction under test sits at PC 0 with destination r3, sources r5
// and r7 and target 2; r5 holds 4, so memory accesses hit word 5.
func TestRecordedStatic(t *testing.T) {
	const (
		fl  = 0
		dst = trace.FlagHasDst
		ld  = trace.FlagLoad
		st  = trace.FlagStore
		br  = trace.FlagBranch
		jmp = trace.FlagJump | trace.FlagTaken
	)
	type want struct {
		class      isa.Class
		src1, src2 isa.Reg // recorded sources, packed first
		nsrc       uint8
		flags      uint8
		target     int32
	}
	rr := func(c isa.Class, f uint8) want { return want{c, 5, 7, 2, f, 0} }
	ri := func(c isa.Class, f uint8) want { return want{c, 5, 0, 1, f, 0} }
	ops := map[isa.Op]want{
		isa.NOP: {isa.ClassNop, 0, 0, 0, fl, 0},
		isa.ADD: rr(isa.ClassALU, dst), isa.SUB: rr(isa.ClassALU, dst),
		isa.AND: rr(isa.ClassALU, dst), isa.OR: rr(isa.ClassALU, dst),
		isa.XOR: rr(isa.ClassALU, dst), isa.SHL: rr(isa.ClassALU, dst),
		isa.SHR: rr(isa.ClassALU, dst), isa.SRA: rr(isa.ClassALU, dst),
		isa.SLT:  rr(isa.ClassALU, dst),
		isa.ADDI: ri(isa.ClassALU, dst), isa.ANDI: ri(isa.ClassALU, dst),
		isa.ORI: ri(isa.ClassALU, dst), isa.XORI: ri(isa.ClassALU, dst),
		isa.SHLI: ri(isa.ClassALU, dst), isa.SHRI: ri(isa.ClassALU, dst),
		isa.SRAI: ri(isa.ClassALU, dst), isa.SLTI: ri(isa.ClassALU, dst),
		isa.LUI: {isa.ClassALU, 0, 0, 0, dst, 0},
		isa.MUL: rr(isa.ClassMul, dst), isa.DIV: rr(isa.ClassDiv, dst),
		isa.REM: rr(isa.ClassDiv, dst),
		isa.LD:  ri(isa.ClassLoad, dst|ld), isa.ST: rr(isa.ClassStore, st),
		isa.BEQ: {isa.ClassBranch, 5, 7, 2, br, 2}, isa.BNE: {isa.ClassBranch, 5, 7, 2, br, 2},
		isa.BLT: {isa.ClassBranch, 5, 7, 2, br, 2}, isa.BGE: {isa.ClassBranch, 5, 7, 2, br, 2},
		isa.JMP: {isa.ClassJump, 0, 0, 0, jmp, 2},
		isa.JAL: {isa.ClassJump, 0, 0, 0, dst | jmp, 2},
	}
	// r7 values that make each conditional branch go each way (r5 = 4).
	r7 := map[isa.Op]map[bool]int64{
		isa.BEQ: {true: 4, false: 5}, isa.BNE: {true: 5, false: 4},
		isa.BLT: {true: 5, false: 4}, isa.BGE: {true: 4, false: 5},
	}
	check := func(t *testing.T, in isa.Instr, v7 int64, w want) {
		t.Helper()
		m := &Machine{Instrs: []isa.Instr{in, {Op: isa.HALT}, {Op: isa.HALT}}, Mem: make([]int64, 16)}
		m.Regs[5], m.Regs[7] = 4, v7
		tb := trace.NewBuilder()
		if n, err := m.RunCtx(context.Background(), tb); err != nil || n != 1 {
			t.Fatalf("retired %d, err %v", n, err)
		}
		tr := tb.Trace()
		if len(tr.Dictionary()) != 1 {
			t.Fatalf("dictionary has %d tuples, want 1", len(tr.Dictionary()))
		}
		s := tr.Dictionary()[0]
		wantDst := isa.Reg(0)
		if w.flags&trace.FlagHasDst != 0 {
			wantDst = in.Dst
		}
		for _, f := range []struct {
			name      string
			got, want int64
		}{
			{"PC", int64(s.PC), 0},
			{"Target", int64(s.Target), int64(w.target)},
			{"Op", int64(s.Op), int64(in.Op)},
			{"Class", int64(s.Class), int64(w.class)},
			{"Flags", int64(s.Flags &^ (3 << trace.NumSrcShift)), int64(w.flags)},
			{"NumSrc", int64(s.Flags >> trace.NumSrcShift), int64(w.nsrc)},
			{"Dst", int64(s.Dst), int64(wantDst)},
			{"Src1", int64(s.Src1), int64(w.src1)},
			{"Src2", int64(s.Src2), int64(w.src2)},
		} {
			if f.got != f.want {
				t.Errorf("%v: %s = %d, want %d", in, f.name, f.got, f.want)
			}
		}
		d := tracetest.At(tr, 0)
		wantEA, wantNext := int64(0), int64(1)
		if w.class == isa.ClassLoad || w.class == isa.ClassStore {
			wantEA = 5
		}
		if w.flags&trace.FlagTaken != 0 {
			wantNext = 2
		}
		if d.EffAddr != wantEA || d.NextPC != wantNext {
			t.Errorf("%v: EffAddr %d NextPC %d, want %d and %d", in, d.EffAddr, d.NextPC, wantEA, wantNext)
		}
	}
	for op := isa.Op(0); op < isa.HALT; op++ {
		w, ok := ops[op]
		if !ok {
			t.Errorf("no expected tuple for %v", op)
			continue
		}
		in := isa.Instr{Op: op, Dst: 3, Src1: 5, Src2: 7, Imm: 1, Target: 2}
		if dirs, ok := r7[op]; ok {
			for _, taken := range []bool{false, true} {
				wt := w
				if taken {
					wt.flags |= trace.FlagTaken
				}
				t.Run(fmt.Sprintf("%v/taken=%v", op, taken), func(t *testing.T) { check(t, in, dirs[taken], wt) })
			}
			continue
		}
		t.Run(op.String(), func(t *testing.T) { check(t, in, 0, w) })
	}
	// The zero register is never a recorded source or destination.
	t.Run("zero-register", func(t *testing.T) {
		check(t, isa.Instr{Op: isa.ADD, Dst: 0, Src1: 0, Src2: 7}, 0, want{isa.ClassALU, 7, 0, 1, fl, 0})
		check(t, isa.Instr{Op: isa.JAL, Dst: 0, Target: 2}, 0, want{isa.ClassJump, 0, 0, 0, jmp, 2})
		check(t, isa.Instr{Op: isa.LUI, Dst: 3, Src1: 5, Src2: 7, Imm: 9}, 0, want{isa.ClassALU, 0, 0, 0, dst, 0})
	})
}

// TestResetRerunsIdentically: a reset machine runs the program again
// from its initial data image, and a second run into the same builder
// reuses the first run's dictionary ids.
func TestResetRerunsIdentically(t *testing.T) {
	p := program.New("t", 64)
	p.SetDataSlice(0, []int64{9, 8, 7})
	b := p.Block("main")
	b.Li(1, 0).Li(2, 3).Li(3, 0)
	b = p.Block("loop")
	b.Ld(4, 1, 0).Add(3, 3, 4).St(3, 1, 0).Addi(1, 1, 1).Blt(1, 2, "loop")
	p.Block("end").Halt()

	m := MustNew(p)
	tb := trace.NewBuilder()
	n1, err := m.RunCtx(context.Background(), tb)
	if err != nil {
		t.Fatal(err)
	}
	mem1 := append([]int64(nil), m.Mem...)
	regs1 := m.Regs
	m.Reset()
	if m.PC != 0 || m.Retired != 0 || m.Halted || m.Regs != ([isa.NumRegs]int64{}) || m.Mem[1] != 8 {
		t.Fatalf("Reset left PC %d retired %d halted %v mem[1] %d", m.PC, m.Retired, m.Halted, m.Mem[1])
	}
	n2, err := m.RunCtx(context.Background(), tb)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n1 || m.Regs != regs1 || !slices.Equal(m.Mem, mem1) {
		t.Fatalf("second run differs: n %d/%d, r3 %d/%d", n1, n2, regs1[3], m.Regs[3])
	}
	tr := tb.Trace()
	recs := tracetest.Records(tr)
	first, second := recs[:n1], recs[n1:]
	for i := range first {
		second[i].Seq -= n1
		if first[i] != second[i] {
			t.Fatalf("record %d differs between runs:\n %+v\n %+v", i, first[i], second[i])
		}
	}
	fresh := trace.NewBuilder()
	if _, err := MustNew(p).RunCtx(context.Background(), fresh); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tr.Dictionary(), fresh.Trace().Dictionary()) {
		t.Error("the second run grew the dictionary")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *program.Program {
		p := program.New("t", 64)
		p.SetDataSlice(0, []int64{9, 8, 7})
		b := p.Block("main")
		b.Li(1, 0)
		b.Li(2, 3)
		b.Li(3, 0)
		b = p.Block("loop")
		b.Ld(4, 1, 0)
		b.Add(3, 3, 4)
		b.Addi(1, 1, 1)
		b.Blt(1, 2, "loop")
		b = p.Block("end")
		b.Halt()
		return p
	}
	m1, m2 := MustNew(build()), MustNew(build())
	n1, _ := m1.RunCtx(context.Background(), nil)
	n2, _ := m2.RunCtx(context.Background(), nil)
	if n1 != n2 || m1.Regs[3] != m2.Regs[3] {
		t.Errorf("non-deterministic execution: n=%d/%d sum=%d/%d", n1, n2, m1.Regs[3], m2.Regs[3])
	}
	if m1.Regs[3] != 24 {
		t.Errorf("sum = %d, want 24", m1.Regs[3])
	}
}

func TestNewRejectsBadPrograms(t *testing.T) {
	p := program.New("t", 0) // no memory
	p.Block("m").Halt()
	if _, err := New(p); err == nil {
		t.Error("program with no memory accepted")
	}
	p2 := program.New("t", 8)
	p2.SetData(100, 1) // out of range init
	p2.Block("m").Halt()
	if _, err := New(p2); err == nil {
		t.Error("out-of-range data init accepted")
	}
}

// straightLine returns a program of n distinct ALU instructions and a
// HALT: one run records n dictionary tuples.
func straightLine(n int) *program.Program {
	p := program.New("t", 8)
	b := p.Block("main")
	for i := 0; i < n; i++ {
		b.Addi(1, 1, 1)
	}
	b.Halt()
	return p
}

// TestRunStopsAtDictionaryCap runs programs on both sides of the
// dictionary cap: MaxTuples tuples record, one more stops the run with
// an error wrapping trace.ErrDictionaryFull instead of a panic.
func TestRunStopsAtDictionaryCap(t *testing.T) {
	b := trace.NewBuilder()
	if n, err := RunProgram(straightLine(trace.MaxTuples), b); err != nil || n != trace.MaxTuples {
		t.Fatalf("MaxTuples tuples: n=%d err=%v", n, err)
	}
	if got := len(b.Trace().Dictionary()); got != trace.MaxTuples {
		t.Fatalf("dictionary holds %d tuples, want %d", got, trace.MaxTuples)
	}
	if _, err := RunProgram(straightLine(trace.MaxTuples+1), trace.NewBuilder()); !errors.Is(err, trace.ErrDictionaryFull) {
		t.Fatalf("MaxTuples+1 tuples: err = %v, want ErrDictionaryFull", err)
	}
}
