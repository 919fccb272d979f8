// Package program provides an intermediate representation for programs
// in the repository's RISC ISA, together with a builder DSL used by the
// workload kernels and by the compiler passes.
//
// A Program is a list of labeled basic blocks plus an initialized data
// segment. Build resolves labels to static instruction indices and
// produces the flat instruction array executed by the functional
// simulator (package funcsim).
package program

import (
	"fmt"

	"repro/internal/isa"
)

// Inst is one IR instruction. Control transfers name their target by
// label; Build resolves labels to static indices.
type Inst struct {
	Op    isa.Op
	Dst   isa.Reg
	Src1  isa.Reg
	Src2  isa.Reg
	Imm   int64
	Label string // branch/jump target label
}

// Block is a labeled basic block. A block ends implicitly by falling
// through to the next block, or explicitly at a control instruction.
//
// LoopHead marks the block as the head of an innermost loop whose body
// runs until the block named LoopLatch (inclusive); the loop unroller in
// package compiler uses this metadata.
type Block struct {
	Label     string
	Insts     []Inst
	LoopHead  bool
	LoopLatch string // label of the latch block (may equal Label)
	// TripMultiple, when non-zero on a loop head, asserts that the
	// loop's dynamic trip count is always a positive multiple of this
	// value. The loop unroller (package compiler) relies on it to
	// remove intermediate exit tests safely.
	TripMultiple int64
}

// MaxMemWords is the absolute data-memory ceiling any program may
// declare: 1<<26 words (512 MiB of int64 data). Build and funcsim.New
// reject anything larger, so a hostile ".mem 1<<40" directive fails
// with a descriptive error instead of an allocation that kills the
// process. The built-in workload suite peaks around 2^19 words; the
// ingestion path applies far tighter, configurable limits on top.
const MaxMemWords = 1 << 26

// Program is a complete IR program.
type Program struct {
	Name   string
	Blocks []*Block
	// Data holds the initial values of the initialized memory words,
	// as runs of consecutive addresses that readers see sorted and
	// disjoint (see Image). All other memory words start at zero.
	// SetData and SetDataSlice write it.
	Data Image
	// MemWords is the size of the data memory in words.
	MemWords int64
}

// New returns an empty program with the given name and memory size.
func New(name string, memWords int64) *Program {
	return &Program{Name: name, MemWords: memWords}
}

// SetData initializes one memory word.
func (p *Program) SetData(addr, val int64) {
	p.Data.set(addr, val)
}

// SetDataSlice initializes consecutive memory words starting at base,
// copying vals.
func (p *Program) SetDataSlice(base int64, vals []int64) {
	p.Data.setSlice(base, vals, false)
}

// AdoptDataSlice is SetDataSlice without the copy: the program takes
// ownership of vals, which the caller must not use afterwards. A
// builder that fills a large array only to hand it over saves the
// second copy.
func (p *Program) AdoptDataSlice(base int64, vals []int64) {
	p.Data.setSlice(base, vals, true)
}

// Block appends a new basic block with the given label and returns a
// builder for it.
func (p *Program) Block(label string) *Builder {
	b := &Block{Label: label}
	p.Blocks = append(p.Blocks, b)
	return &Builder{blk: b}
}

// LoopBlock appends a new block marked as a loop head whose latch is the
// block named latch.
func (p *Program) LoopBlock(label, latch string) *Builder {
	bld := p.Block(label)
	bld.blk.LoopHead = true
	bld.blk.LoopLatch = latch
	return bld
}

// LoopBlockN is LoopBlock with a trip-count-multiple assertion (see
// Block.TripMultiple).
func (p *Program) LoopBlockN(label, latch string, tripMultiple int64) *Builder {
	bld := p.LoopBlock(label, latch)
	bld.blk.TripMultiple = tripMultiple
	return bld
}

// FindBlock returns the block with the given label, or nil.
func (p *Program) FindBlock(label string) *Block {
	for _, b := range p.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// Clone returns a deep copy of the program. Compiler passes transform
// clones so the original stays intact.
func (p *Program) Clone() *Program {
	q := New(p.Name, p.MemWords)
	for _, r := range p.Data.Runs() {
		q.SetDataSlice(r.Base, r.Vals)
	}
	for _, b := range p.Blocks {
		nb := &Block{
			Label:        b.Label,
			Insts:        append([]Inst(nil), b.Insts...),
			LoopHead:     b.LoopHead,
			LoopLatch:    b.LoopLatch,
			TripMultiple: b.TripMultiple,
		}
		q.Blocks = append(q.Blocks, nb)
	}
	return q
}

// StaticLen returns the number of static instructions in the program.
func (p *Program) StaticLen() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Build resolves labels and returns the flat instruction array. The
// program must end every path in HALT to terminate; Build does not
// verify reachability but does verify label resolution and that every
// register operand names one of the isa.NumRegs registers.
func (p *Program) Build() ([]isa.Instr, error) {
	if len(p.Blocks) == 0 {
		return nil, fmt.Errorf("program %q: no blocks", p.Name)
	}
	if p.MemWords < 0 {
		return nil, fmt.Errorf("program %q: negative memory size %d", p.Name, p.MemWords)
	}
	if p.MemWords > MaxMemWords {
		return nil, fmt.Errorf("program %q: memory size %d words exceeds the %d-word ceiling", p.Name, p.MemWords, int64(MaxMemWords))
	}
	if p.MemWords > 0 {
		if a, bad := p.Data.FirstOutside(p.MemWords); bad {
			return nil, fmt.Errorf("program %q: data init address %d outside memory [0,%d)", p.Name, a, p.MemWords)
		}
	}
	addr := make(map[string]int, len(p.Blocks))
	n := 0
	for _, b := range p.Blocks {
		if b.Label == "" {
			return nil, fmt.Errorf("program %q: unlabeled block", p.Name)
		}
		if _, dup := addr[b.Label]; dup {
			return nil, fmt.Errorf("program %q: duplicate label %q", p.Name, b.Label)
		}
		addr[b.Label] = n
		n += len(b.Insts)
	}
	out := make([]isa.Instr, 0, n)
	for _, b := range p.Blocks {
		for _, in := range b.Insts {
			if r := max(in.Dst, in.Src1, in.Src2); r >= isa.NumRegs {
				return nil, fmt.Errorf("program %q: block %q: %v names register %v, beyond %v", p.Name, b.Label, in.Op, r, isa.Reg(isa.NumRegs-1))
			}
			mi := isa.Instr{Op: in.Op, Dst: in.Dst, Src1: in.Src1, Src2: in.Src2, Imm: in.Imm}
			if in.Label != "" {
				t, ok := addr[in.Label]
				if !ok {
					return nil, fmt.Errorf("program %q: unresolved label %q", p.Name, in.Label)
				}
				mi.Target = t
			} else if mi.IsControl() {
				return nil, fmt.Errorf("program %q: control instruction %v without label", p.Name, in.Op)
			}
			out = append(out, mi)
		}
	}
	return out, nil
}

// MustBuild is Build that panics on error; for use by the workload
// library, whose programs are statically known to be well formed.
func (p *Program) MustBuild() []isa.Instr {
	ins, err := p.Build()
	if err != nil {
		panic(err)
	}
	return ins
}

// Builder offers a fluent instruction-emission API over one block.
type Builder struct {
	blk *Block
}

// Blk returns the underlying block.
func (b *Builder) Blk() *Block { return b.blk }

func (b *Builder) emit(i Inst) *Builder {
	b.blk.Insts = append(b.blk.Insts, i)
	return b
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Inst{Op: isa.NOP}) }

// Add emits dst = s1 + s2.
func (b *Builder) Add(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.ADD, Dst: dst, Src1: s1, Src2: s2})
}

// Sub emits dst = s1 - s2.
func (b *Builder) Sub(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.SUB, Dst: dst, Src1: s1, Src2: s2})
}

// And emits dst = s1 & s2.
func (b *Builder) And(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.AND, Dst: dst, Src1: s1, Src2: s2})
}

// Or emits dst = s1 | s2.
func (b *Builder) Or(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.OR, Dst: dst, Src1: s1, Src2: s2})
}

// Xor emits dst = s1 ^ s2.
func (b *Builder) Xor(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.XOR, Dst: dst, Src1: s1, Src2: s2})
}

// Shl emits dst = s1 << s2.
func (b *Builder) Shl(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.SHL, Dst: dst, Src1: s1, Src2: s2})
}

// Shr emits dst = s1 >> s2 (logical).
func (b *Builder) Shr(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.SHR, Dst: dst, Src1: s1, Src2: s2})
}

// Sra emits dst = s1 >> s2 (arithmetic).
func (b *Builder) Sra(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.SRA, Dst: dst, Src1: s1, Src2: s2})
}

// Slt emits dst = (s1 < s2).
func (b *Builder) Slt(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.SLT, Dst: dst, Src1: s1, Src2: s2})
}

// Addi emits dst = s1 + imm.
func (b *Builder) Addi(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.ADDI, Dst: dst, Src1: s1, Imm: imm})
}

// Andi emits dst = s1 & imm.
func (b *Builder) Andi(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.ANDI, Dst: dst, Src1: s1, Imm: imm})
}

// Ori emits dst = s1 | imm.
func (b *Builder) Ori(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.ORI, Dst: dst, Src1: s1, Imm: imm})
}

// Xori emits dst = s1 ^ imm.
func (b *Builder) Xori(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.XORI, Dst: dst, Src1: s1, Imm: imm})
}

// Shli emits dst = s1 << imm.
func (b *Builder) Shli(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.SHLI, Dst: dst, Src1: s1, Imm: imm})
}

// Shri emits dst = s1 >> imm (logical).
func (b *Builder) Shri(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.SHRI, Dst: dst, Src1: s1, Imm: imm})
}

// Srai emits dst = s1 >> imm (arithmetic).
func (b *Builder) Srai(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.SRAI, Dst: dst, Src1: s1, Imm: imm})
}

// Slti emits dst = (s1 < imm).
func (b *Builder) Slti(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.SLTI, Dst: dst, Src1: s1, Imm: imm})
}

// Li emits dst = imm.
func (b *Builder) Li(dst isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.LUI, Dst: dst, Imm: imm})
}

// Mul emits dst = s1 * s2 (long latency).
func (b *Builder) Mul(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.MUL, Dst: dst, Src1: s1, Src2: s2})
}

// Div emits dst = s1 / s2 (long latency).
func (b *Builder) Div(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.DIV, Dst: dst, Src1: s1, Src2: s2})
}

// Rem emits dst = s1 % s2 (long latency).
func (b *Builder) Rem(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Op: isa.REM, Dst: dst, Src1: s1, Src2: s2})
}

// Ld emits dst = mem[base+imm].
func (b *Builder) Ld(dst, base isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.LD, Dst: dst, Src1: base, Imm: imm})
}

// St emits mem[base+imm] = val.
func (b *Builder) St(val, base isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Op: isa.ST, Src1: base, Src2: val, Imm: imm})
}

// Beq emits a branch to label if s1 == s2.
func (b *Builder) Beq(s1, s2 isa.Reg, label string) *Builder {
	return b.emit(Inst{Op: isa.BEQ, Src1: s1, Src2: s2, Label: label})
}

// Bne emits a branch to label if s1 != s2.
func (b *Builder) Bne(s1, s2 isa.Reg, label string) *Builder {
	return b.emit(Inst{Op: isa.BNE, Src1: s1, Src2: s2, Label: label})
}

// Blt emits a branch to label if s1 < s2 (signed).
func (b *Builder) Blt(s1, s2 isa.Reg, label string) *Builder {
	return b.emit(Inst{Op: isa.BLT, Src1: s1, Src2: s2, Label: label})
}

// Bge emits a branch to label if s1 >= s2 (signed).
func (b *Builder) Bge(s1, s2 isa.Reg, label string) *Builder {
	return b.emit(Inst{Op: isa.BGE, Src1: s1, Src2: s2, Label: label})
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder {
	return b.emit(Inst{Op: isa.JMP, Label: label})
}

// Jal emits a call to label, writing the return index to dst.
func (b *Builder) Jal(dst isa.Reg, label string) *Builder {
	return b.emit(Inst{Op: isa.JAL, Dst: dst, Label: label})
}

// Halt emits program termination.
func (b *Builder) Halt() *Builder { return b.emit(Inst{Op: isa.HALT}) }
