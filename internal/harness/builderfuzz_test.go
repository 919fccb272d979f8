package harness

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// fuzzBudget caps the instructions a fuzzed program may run: enough
// for loops to cross a few chunk edges, small enough for a fast target.
const fuzzBudget = 4 * trace.ChunkLen

// The register-register, register-immediate and branch emitters a
// fuzzed step picks from.
var (
	regOps = []func(b *program.Builder, dst, s1, s2 isa.Reg) *program.Builder{
		(*program.Builder).Add, (*program.Builder).Sub, (*program.Builder).And, (*program.Builder).Or,
		(*program.Builder).Xor, (*program.Builder).Shl, (*program.Builder).Shr, (*program.Builder).Sra,
		(*program.Builder).Slt, (*program.Builder).Mul, (*program.Builder).Div, (*program.Builder).Rem,
	}
	immOps = []func(b *program.Builder, dst, s1 isa.Reg, imm int64) *program.Builder{
		(*program.Builder).Addi, (*program.Builder).Andi, (*program.Builder).Ori, (*program.Builder).Xori,
		(*program.Builder).Shli, (*program.Builder).Shri, (*program.Builder).Srai, (*program.Builder).Slti,
	}
	branchOps = []func(b *program.Builder, s1, s2 isa.Reg, label string) *program.Builder{
		(*program.Builder).Beq, (*program.Builder).Bne, (*program.Builder).Blt, (*program.Builder).Bge,
	}
)

// builderProgram drives program.Builder from data, three bytes a step
// (op, a, b). Register operands range past the last register, labels
// past the blocks that exist and data addresses past memory, so Build
// sees programs it must reject; runs of up to 319 distinct instructions
// take the dictionary past 256 tuples, and counted loops carry
// execution across chunk edges.
func builderProgram(data []byte) *program.Program {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	p := program.New("fuzz", int64(at(0))<<4)
	cur := p.Block("entry")
	reg := func(x byte) isa.Reg { return isa.Reg(x % (isa.NumRegs + 2)) }
	label := func(x byte) string { return fmt.Sprintf("b%d", x%9) }
	for i, step := 1, 0; i < len(data); i, step = i+3, step+1 {
		op, a, b := at(i), at(i+1), at(i+2)
		switch op % 12 {
		case 0:
			cur = p.Block(fmt.Sprintf("b%d", a%8))
		case 1:
			regOps[int(a^b)%len(regOps)](cur, reg(a), reg(b), reg(a+b))
		case 2:
			immOps[int(a)%len(immOps)](cur, reg(a>>3), reg(b), int64(int8(b)))
		case 3:
			cur.Ld(reg(a), reg(b), int64(int8(a^b)))
		case 4:
			cur.St(reg(a), reg(b), int64(int8(a^b)))
		case 5:
			branchOps[int(a)%len(branchOps)](cur, reg(a), reg(b), label(a+b))
		case 6:
			cur.Jmp(label(b))
		case 7:
			cur.Jal(reg(a), label(b))
		case 8:
			cur.Halt()
		case 9:
			for k := range 64 + int(b) {
				r := isa.Reg(5 + k%8)
				cur.Addi(r, r, int64(k))
			}
		case 10:
			// A counted loop of b*64 trips on a register of its own.
			r, l := isa.Reg(28+a%4), fmt.Sprintf("loop%d", step)
			cur.Li(r, int64(b)*64+1)
			cur = p.Block(l)
			cur.Addi(r, r, -1).Bne(r, isa.Zero, l)
		case 11:
			p.SetData(int64(a)<<4|int64(b&15), int64(int8(b)))
		}
	}
	return p
}

// FuzzProgramBuilder builds programs through program.Builder, some past
// 256 trace tuples, and profiles them under an instruction budget
// through profileRuns, the path of ProfileProgram. Build must reject a
// program or profiling must run it without a panic; a rejected program
// must be rejected by profiling too, as an error. A profile must count
// every recorded instruction, equal the one-pass profile of its trace,
// and the trace must be narrow throughout if its dictionary fits a
// byte.
func FuzzProgramBuilder(f *testing.F) {
	f.Add([]byte{64, 8, 0, 0})                                  // halt
	f.Add([]byte{64, 9, 0, 200, 9, 0, 100, 8, 0, 0})            // 264 + 164 distinct instructions
	f.Add([]byte{64, 9, 0, 255, 10, 1, 255, 9, 0, 30, 8, 0, 0}) // a run, a loop over two chunk edges, a run
	f.Add([]byte{64, 10, 0, 255, 3, 5, 9, 4, 6, 1, 8, 0, 0})    // a loop, a load and a store
	f.Add([]byte{64, 1, 40, 3})                                 // a register beyond the last
	f.Add([]byte{64, 6, 0, 8})                                  // a jump to a missing label
	f.Fuzz(func(t *testing.T, data []byte) {
		p := builderProgram(data)
		_, buildErr := p.Build()
		pw, err := profileRuns(context.Background(), context.Background(), p, 0, fuzzBudget)
		if buildErr != nil {
			if err == nil {
				t.Fatalf("Build rejects the program (%v), profiling ran it", buildErr)
			}
			return
		}
		if err != nil {
			if strings.Contains(err.Error(), "panicked") {
				t.Fatal(err)
			}
			return
		}
		tr := pw.Trace
		if pw.Prof.N != tr.Len() {
			t.Fatalf("profile counts %d instructions, trace holds %d", pw.Prof.N, tr.Len())
		}
		if want := onePass(pw.Name, tr); !reflect.DeepEqual(pw.Prof, want) {
			t.Fatalf("profile differs from the one-pass profile of its trace")
		}
		if len(tr.Dictionary()) <= trace.NarrowTuples {
			for i, ck := range tr.Chunks() {
				if ck.Wide() {
					t.Fatalf("chunk %d is wide under a %d-tuple dictionary", i, len(tr.Dictionary()))
				}
			}
		}
	})
}
