package program

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestBuildResolvesLabels(t *testing.T) {
	p := New("t", 16)
	b := p.Block("start")
	b.Li(1, 5)
	b.Jmp("end")
	b = p.Block("mid")
	b.Nop()
	b = p.Block("end")
	b.Halt()

	ins, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 4 {
		t.Fatalf("got %d instructions, want 4", len(ins))
	}
	if ins[1].Op != isa.JMP || ins[1].Target != 3 {
		t.Errorf("jmp = %v, want target 3", ins[1])
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := New("t", 16).Build(); err == nil {
			t.Error("empty program built without error")
		}
	})
	t.Run("unresolved label", func(t *testing.T) {
		p := New("t", 16)
		p.Block("a").Jmp("nowhere")
		if _, err := p.Build(); err == nil || !strings.Contains(err.Error(), "unresolved") {
			t.Errorf("err = %v, want unresolved-label error", err)
		}
	})
	t.Run("duplicate label", func(t *testing.T) {
		p := New("t", 16)
		p.Block("a").Nop()
		p.Block("a").Halt()
		if _, err := p.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("err = %v, want duplicate-label error", err)
		}
	})
	t.Run("control without label", func(t *testing.T) {
		p := New("t", 16)
		b := p.Block("a")
		b.blk.Insts = append(b.blk.Insts, Inst{Op: isa.BEQ})
		if _, err := p.Build(); err == nil || !strings.Contains(err.Error(), "without label") {
			t.Errorf("err = %v, want control-without-label error", err)
		}
	})
	t.Run("unlabeled block", func(t *testing.T) {
		p := New("t", 16)
		p.Blocks = append(p.Blocks, &Block{})
		if _, err := p.Build(); err == nil {
			t.Error("unlabeled block built without error")
		}
	})
	for _, in := range []Inst{
		{Op: isa.ADD, Dst: isa.NumRegs, Src1: 1, Src2: 2},
		{Op: isa.ADD, Dst: 3, Src1: 200, Src2: 1},
		{Op: isa.ADD, Dst: 3, Src1: 1, Src2: 255},
	} {
		t.Run(fmt.Sprintf("register out of range %d-%d-%d", in.Dst, in.Src1, in.Src2), func(t *testing.T) {
			p := New("t", 16)
			b := p.Block("a")
			b.blk.Insts = append(b.blk.Insts, in)
			b.Halt()
			if _, err := p.Build(); err == nil || !strings.Contains(err.Error(), "register") {
				t.Errorf("err = %v, want register-out-of-range error", err)
			}
		})
	}
}

func TestBuilderEmitsExpectedOpcodes(t *testing.T) {
	p := New("t", 16)
	b := p.Block("a")
	b.Add(1, 2, 3).Sub(1, 2, 3).And(1, 2, 3).Or(1, 2, 3).Xor(1, 2, 3)
	b.Shl(1, 2, 3).Shr(1, 2, 3).Sra(1, 2, 3).Slt(1, 2, 3)
	b.Addi(1, 2, 4).Andi(1, 2, 4).Ori(1, 2, 4).Xori(1, 2, 4)
	b.Shli(1, 2, 4).Shri(1, 2, 4).Srai(1, 2, 4).Slti(1, 2, 4)
	b.Li(1, 4).Mul(1, 2, 3).Div(1, 2, 3).Rem(1, 2, 3)
	b.Ld(1, 2, 4).St(1, 2, 4)
	b.Beq(1, 2, "a").Bne(1, 2, "a").Blt(1, 2, "a").Bge(1, 2, "a")
	b.Jmp("a").Jal(1, "a").Nop().Halt()

	want := []isa.Op{
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SRA, isa.SLT,
		isa.ADDI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SRAI, isa.SLTI,
		isa.LUI, isa.MUL, isa.DIV, isa.REM,
		isa.LD, isa.ST,
		isa.BEQ, isa.BNE, isa.BLT, isa.BGE,
		isa.JMP, isa.JAL, isa.NOP, isa.HALT,
	}
	got := b.Blk().Insts
	if len(got) != len(want) {
		t.Fatalf("emitted %d instructions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i] {
			t.Errorf("inst %d: op %v, want %v", i, got[i].Op, want[i])
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := New("t", 16)
	p.SetData(3, 42)
	b := p.LoopBlockN("loop", "loop", 4)
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")

	p.SetDataSlice(8, []int64{1, 2})

	q := p.Clone()
	q.Blocks[0].Insts[0].Imm = 99
	q.SetData(10, 3) // extends the clone's last run
	q.SetData(3, 7)

	if p.Blocks[0].Insts[0].Imm != 1 {
		t.Error("clone shares instruction storage with original")
	}
	if got := p.Data.Runs(); !reflect.DeepEqual(got, []Run{{3, []int64{42}}, {8, []int64{1, 2}}}) {
		t.Errorf("writes to the clone changed the original's data: %v", got)
	}
	if got := q.Data.Runs(); !reflect.DeepEqual(got, []Run{{3, []int64{7}}, {8, []int64{1, 2, 3}}}) {
		t.Errorf("clone data = %v", got)
	}
	if !q.Blocks[0].LoopHead || q.Blocks[0].TripMultiple != 4 || q.Blocks[0].LoopLatch != "loop" {
		t.Error("clone lost loop metadata")
	}
}

func TestSetDataSliceAndAddrs(t *testing.T) {
	p := New("t", 64)
	p.SetDataSlice(10, []int64{1, 2, 3})
	p.SetData(5, 9)
	p.SetData(11, 4) // overwrites, and the later write wins
	if got, want := p.Data.Runs(), []Run{{5, []int64{9}}, {10, []int64{1, 4, 3}}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	if n := p.Data.Len(); n != 4 {
		t.Errorf("Len = %d, want 4", n)
	}
	if v, ok := p.Data.Get(11); !ok || v != 4 {
		t.Errorf("Get(11) = %d, %v, want 4, true", v, ok)
	}
	if _, ok := p.Data.Get(6); ok {
		t.Error("Get(6) found an uninitialized word")
	}
}

func TestStaticLen(t *testing.T) {
	p := New("t", 16)
	p.Block("a").Nop().Nop()
	p.Block("b").Halt()
	if got := p.StaticLen(); got != 3 {
		t.Errorf("StaticLen = %d, want 3", got)
	}
}

func TestFindBlock(t *testing.T) {
	p := New("t", 16)
	p.Block("a").Nop()
	if p.FindBlock("a") == nil {
		t.Error("FindBlock failed to find existing block")
	}
	if p.FindBlock("zzz") != nil {
		t.Error("FindBlock found nonexistent block")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on bad program")
		}
	}()
	New("t", 16).MustBuild()
}
