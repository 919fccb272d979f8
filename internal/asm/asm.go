// Package asm provides a textual assembly format for the repository's
// ISA: an assembler producing program IR and a disassembler that
// round-trips it. It exists for users who prefer writing kernels as
// text over the builder DSL in package program.
//
// Syntax (one instruction or directive per line; ';' starts a comment):
//
//	.mem 4096               ; data memory size in words (required)
//	.data 0x100 1 2 -3      ; initialize consecutive words
//	.loop body body 4       ; mark block `body` as a loop head
//	                        ; (label, latch, trip multiple)
//	main:                   ; labels start blocks
//	  li   r1, 10
//	  add  r2, r1, r1
//	  addi r1, r1, -1
//	  ld   r3, 8(r2)        ; loads/stores use displacement(base)
//	  st   r3, 0(r2)
//	  blt  r0, r1, main     ; branches name their target block
//	  halt
package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/program"
)

// ErrLimit marks a source rejected by AssembleLimited's static limits
// (size, block/instruction/data counts, memory words). errors.Is-able
// so callers can distinguish "too big" from "malformed".
var ErrLimit = errors.New("asm: source exceeds limit")

// Limits bounds what AssembleLimited accepts. Zero fields are
// unlimited (up to program.MaxMemWords, which Build always enforces).
// The limits are checked while parsing, so a hostile source fails
// fast instead of building an arbitrarily large IR first: the data
// limit fires by the time twice its words have been written, or at the
// end of the source.
type Limits struct {
	MaxSourceBytes int   // length of the source text
	MaxBlocks      int   // labeled basic blocks
	MaxInsts       int   // static instructions across all blocks
	MaxDataEntries int   // distinct .data-initialized words
	MaxMemWords    int64 // .mem declaration
}

// Assemble parses source text into a program named name, without
// static limits (trusted callers: tests, tools, round-trips).
func Assemble(name, src string) (*program.Program, error) {
	return AssembleLimited(name, src, Limits{})
}

// AssembleLimited is Assemble under explicit static limits; violations
// wrap ErrLimit.
func AssembleLimited(name, src string, lim Limits) (*program.Program, error) {
	if lim.MaxSourceBytes > 0 && len(src) > lim.MaxSourceBytes {
		return nil, fmt.Errorf("%w: source is %d bytes, cap %d", ErrLimit, len(src), lim.MaxSourceBytes)
	}
	a := &assembler{prog: program.New(name, 0), lim: lim}
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := a.line(line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", ln+1, err)
		}
	}
	if a.lim.MaxDataEntries > 0 && a.dataWords > a.lim.MaxDataEntries {
		if err := a.countData(); err != nil {
			return nil, fmt.Errorf("asm: %w", err)
		}
	}
	if a.prog.MemWords == 0 {
		return nil, fmt.Errorf("asm: missing .mem directive")
	}
	if _, err := a.prog.Build(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return a.prog, nil
}

type assembler struct {
	prog  *program.Program
	cur   *program.Builder
	lim   Limits
	insts int
	// dataWords bounds the distinct .data words from above: the exact
	// count at the last countData plus the words written since.
	dataWords int
}

// countData enforces MaxDataEntries on the distinct .data words so
// far. Counting them merges overwritten words, which costs time in
// the number of words written, so the parser counts only when
// dataWords passes twice the limit, and once at the end: each count
// then follows at least MaxDataEntries writes, which keeps the check
// linear in the source.
func (a *assembler) countData() error {
	a.dataWords = a.prog.Data.Len()
	if a.dataWords > a.lim.MaxDataEntries {
		return fmt.Errorf("%w: more than %d data words", ErrLimit, a.lim.MaxDataEntries)
	}
	return nil
}

func (a *assembler) line(line string) error {
	switch {
	case strings.HasPrefix(line, "."):
		return a.directive(line)
	case strings.HasSuffix(line, ":"):
		label := strings.TrimSuffix(line, ":")
		if label == "" {
			return fmt.Errorf("empty label")
		}
		if a.lim.MaxBlocks > 0 && len(a.prog.Blocks) >= a.lim.MaxBlocks {
			return fmt.Errorf("%w: more than %d blocks", ErrLimit, a.lim.MaxBlocks)
		}
		a.cur = a.prog.Block(label)
		return nil
	default:
		if a.cur == nil {
			return fmt.Errorf("instruction before any label")
		}
		return a.instruction(line)
	}
}

func (a *assembler) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".mem":
		if len(fields) != 2 {
			return fmt.Errorf(".mem wants one argument")
		}
		n, err := parseInt(fields[1])
		if err != nil {
			return err
		}
		if a.lim.MaxMemWords > 0 && n > a.lim.MaxMemWords {
			return fmt.Errorf("%w: .mem %d words, cap %d", ErrLimit, n, a.lim.MaxMemWords)
		}
		a.prog.MemWords = n
		return nil
	case ".data":
		if len(fields) < 3 {
			return fmt.Errorf(".data wants an address and at least one value")
		}
		addr, err := parseInt(fields[1])
		if err != nil {
			return err
		}
		for i, f := range fields[2:] {
			v, err := parseInt(f)
			if err != nil {
				return err
			}
			a.prog.SetData(addr+int64(i), v)
			a.dataWords++
			if a.lim.MaxDataEntries > 0 && a.dataWords > 2*a.lim.MaxDataEntries {
				if err := a.countData(); err != nil {
					return err
				}
			}
		}
		return nil
	case ".loop":
		if len(fields) != 4 {
			return fmt.Errorf(".loop wants label, latch and trip multiple")
		}
		blk := a.prog.FindBlock(fields[1])
		if blk == nil {
			return fmt.Errorf(".loop names unknown block %q (declare it first)", fields[1])
		}
		trip, err := parseInt(fields[3])
		if err != nil {
			return err
		}
		blk.LoopHead = true
		blk.LoopLatch = fields[2]
		blk.TripMultiple = trip
		return nil
	}
	return fmt.Errorf("unknown directive %q", fields[0])
}

// opByName maps mnemonics to opcodes.
var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps+1)
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		m[op.String()] = op
	}
	m["li"] = isa.LUI // conventional alias
	return m
}()

func (a *assembler) instruction(line string) error {
	mnemonic, rest, _ := strings.Cut(line, " ")
	op, ok := opByName[mnemonic]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	args := splitArgs(rest)
	in := program.Inst{Op: op}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mnemonic, n, len(args))
		}
		return nil
	}
	var err error
	switch op {
	case isa.NOP, isa.HALT:
		err = need(0)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SRA,
		isa.SLT, isa.MUL, isa.DIV, isa.REM:
		if err = need(3); err == nil {
			in.Dst, err = reg(args[0])
			if err == nil {
				in.Src1, err = reg(args[1])
			}
			if err == nil {
				in.Src2, err = reg(args[2])
			}
		}
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI, isa.SRAI, isa.SLTI:
		if err = need(3); err == nil {
			in.Dst, err = reg(args[0])
			if err == nil {
				in.Src1, err = reg(args[1])
			}
			if err == nil {
				in.Imm, err = parseInt(args[2])
			}
		}
	case isa.LUI:
		if err = need(2); err == nil {
			in.Dst, err = reg(args[0])
			if err == nil {
				in.Imm, err = parseInt(args[1])
			}
		}
	case isa.LD:
		if err = need(2); err == nil {
			in.Dst, err = reg(args[0])
			if err == nil {
				in.Src1, in.Imm, err = memOperand(args[1])
			}
		}
	case isa.ST:
		if err = need(2); err == nil {
			in.Src2, err = reg(args[0]) // value
			if err == nil {
				in.Src1, in.Imm, err = memOperand(args[1])
			}
		}
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		if err = need(3); err == nil {
			in.Src1, err = reg(args[0])
			if err == nil {
				in.Src2, err = reg(args[1])
			}
			in.Label = args[2]
		}
	case isa.JMP:
		if err = need(1); err == nil {
			in.Label = args[0]
		}
	case isa.JAL:
		if err = need(2); err == nil {
			in.Dst, err = reg(args[0])
			in.Label = args[1]
		}
	default:
		err = fmt.Errorf("unhandled opcode %v", op)
	}
	if err != nil {
		return err
	}
	if a.lim.MaxInsts > 0 && a.insts >= a.lim.MaxInsts {
		return fmt.Errorf("%w: more than %d instructions", ErrLimit, a.lim.MaxInsts)
	}
	a.insts++
	a.cur.Blk().Insts = append(a.cur.Blk().Insts, in)
	return nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func reg(s string) (isa.Reg, error) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

// memOperand parses "disp(base)".
func memOperand(s string) (isa.Reg, int64, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	disp, err := parseInt(strings.TrimSpace(s[:open]))
	if err != nil && strings.TrimSpace(s[:open]) != "" {
		return 0, 0, fmt.Errorf("bad displacement in %q", s)
	}
	base, rerr := reg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if rerr != nil {
		return 0, 0, rerr
	}
	return base, disp, nil
}

func parseInt(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64) // accepts 0x..., decimal, negatives
}

// Disassemble renders a program back to assemblable text.
func Disassemble(p *program.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; %s\n.mem %d\n", p.Name, p.MemWords)
	for _, r := range p.Data.Runs() {
		for i, v := range r.Vals {
			fmt.Fprintf(&b, ".data %d %d\n", r.Base+int64(i), v)
		}
	}
	var loops []string
	for _, blk := range p.Blocks {
		if blk.LoopHead && blk.TripMultiple > 0 {
			loops = append(loops, fmt.Sprintf(".loop %s %s %d", blk.Label, blk.LoopLatch, blk.TripMultiple))
		}
	}
	for _, blk := range p.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Label)
		for _, in := range blk.Insts {
			b.WriteString("  ")
			b.WriteString(renderInst(in))
			b.WriteByte('\n')
		}
	}
	for _, l := range loops {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func renderInst(in program.Inst) string {
	switch isa.ClassOf(in.Op) {
	case isa.ClassNop, isa.ClassHalt:
		return in.Op.String()
	case isa.ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Dst, in.Imm, in.Src1)
	case isa.ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Src2, in.Imm, in.Src1)
	case isa.ClassBranch:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Src1, in.Src2, in.Label)
	case isa.ClassJump:
		if in.Op == isa.JAL {
			return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Label)
		}
		return fmt.Sprintf("%s %s", in.Op, in.Label)
	}
	switch in.Op {
	case isa.LUI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI, isa.SRAI, isa.SLTI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.Src1, in.Imm)
	}
	return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
}
