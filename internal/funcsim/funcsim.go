// Package funcsim is the functional (instruction-set) simulator. It
// plays the role M5's functional mode plays in the paper: it executes a
// program to record the dynamic instruction stream (a trace.Trace) that
// profiling and timing simulation consume.
//
// The simulator is architecturally simple: 32 64-bit registers (r0
// hardwired to zero) and a flat word-addressed data memory. Instruction
// memory is the static instruction array itself; PCs are static indices.
package funcsim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// ErrMaxInstructions is returned when execution exceeds the configured
// dynamic instruction budget without reaching HALT.
var ErrMaxInstructions = errors.New("funcsim: dynamic instruction limit exceeded")

// ErrMemFault marks a load/store whose effective address fell outside
// the program's data memory; errors.Is-able so the ingestion path can
// classify hostile programs without parsing messages.
var ErrMemFault = errors.New("funcsim: memory access out of range")

// ErrPCFault marks control flow escaping the instruction array (a
// program falling off its last block without HALT).
var ErrPCFault = errors.New("funcsim: PC out of range")

// DefaultMaxInstructions bounds runaway programs.
const DefaultMaxInstructions = 200_000_000

// ctxCheckInterval is how many retired instructions RunCtx lets pass
// between context checks: frequent enough that a wall-clock deadline
// on an adversarial infinite loop bites within microseconds, rare
// enough that the hot interpreter loop never notices.
const ctxCheckInterval = 1 << 16

// Machine executes one program.
type Machine struct {
	Instrs  []isa.Instr
	Mem     []int64
	Regs    [isa.NumRegs]int64
	PC      int64
	Retired int64
	Halted  bool

	// MaxInstructions bounds the run; DefaultMaxInstructions if zero.
	MaxInstructions int64

	// prog is the program New built the machine for; Reset restores
	// its initial data.
	prog *program.Program

	// ids caches, per (PC, taken) slot, the dictionary id of the slot's
	// tuple in the builder idsFor as (1+id)<<1 | mem, where mem is 1 for
	// a load or store (0: not interned yet). An entry needs 18 bits.
	ids    []uint32
	idsFor *trace.Builder
}

// New builds a machine for the program: it assembles the IR, allocates
// and initializes data memory.
func New(p *program.Program) (*Machine, error) {
	ins, err := p.Build()
	if err != nil {
		return nil, err
	}
	if p.MemWords <= 0 {
		return nil, fmt.Errorf("funcsim: program %q has no data memory", p.Name)
	}
	// Build enforces this too; re-check at the allocation site so a
	// hand-assembled Program can never trigger an unbounded make.
	if p.MemWords > program.MaxMemWords {
		return nil, fmt.Errorf("funcsim: program %q wants %d memory words, above the %d-word ceiling", p.Name, p.MemWords, int64(program.MaxMemWords))
	}
	if a, bad := p.Data.FirstOutside(p.MemWords); bad {
		return nil, fmt.Errorf("funcsim: program %q: data init address %d out of range [0,%d)", p.Name, a, p.MemWords)
	}
	m := &Machine{Instrs: ins, Mem: make([]int64, p.MemWords), prog: p}
	m.loadData()
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(p *program.Program) *Machine {
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// loadData copies the program's initialized words into memory.
func (m *Machine) loadData() {
	for _, r := range m.prog.Data.Runs() {
		copy(m.Mem[r.Base:], r.Vals)
	}
}

// Reset returns the machine to the state New left it in, so the program
// can run again without being re-assembled.
func (m *Machine) Reset() {
	clear(m.Mem)
	m.loadData()
	m.Regs = [isa.NumRegs]int64{}
	m.PC, m.Retired, m.Halted = 0, 0, false
}

// RunCtx executes until HALT, recording every retired instruction into
// b (which may be nil to execute without observation). It returns the
// number of dynamically executed instructions (HALT itself is not
// counted or recorded: it never enters the modeled pipeline's trace).
// Every ctxCheckInterval retired instructions the context is polled,
// so a deadline or cancellation stops even a tight infinite loop
// promptly (returning ctx.Err() with the partial retirement count). A
// background context adds no per-instruction work, and polling never
// changes the retired stream.
//
// Recording costs a table lookup and one store per instruction, two
// for a load or store: every execution of one static instruction that
// goes the same way records the same trace.Static tuple, so the tuple
// is derived and interned once per (PC, taken) and its id cached. The
// cache belongs to b, and persists across runs into the same builder.
// A tuple that would take b's dictionary past trace.MaxTuples stops the
// run with an error wrapping trace.ErrDictionaryFull.
func (m *Machine) RunCtx(ctx context.Context, b *trace.Builder) (int64, error) {
	if m.Halted {
		return m.Retired, nil
	}
	maxN := m.MaxInstructions
	if maxN <= 0 {
		maxN = DefaultMaxInstructions
	}
	record := b != nil
	if record && m.idsFor != b {
		m.ids, m.idsFor = make([]uint32, 2*len(m.Instrs)), b
	}
	ids := m.ids
	watched := ctx.Done() != nil
	instrs, mem := m.Instrs, m.Mem
	memLen := int64(len(mem))
	// The architectural state lives in locals for the whole run, so the
	// interpreter keeps it in registers across the stores into memory
	// and the trace; every exit below writes it back.
	pc, retired, regs := m.PC, m.Retired, m.Regs
	var err error
run:
	for {
		if watched && retired&(ctxCheckInterval-1) == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if pc < 0 || pc >= int64(len(instrs)) {
			err = fmt.Errorf("%w: PC %d outside [0,%d)", ErrPCFault, pc, len(instrs))
			break
		}
		in := &instrs[pc]
		if in.Op == isa.HALT {
			m.Halted = true
			break
		}
		if retired >= maxN {
			err = ErrMaxInstructions
			break
		}

		nextPC := pc + 1
		var ea, taken int64 // effective word address; 1 if control transferred
		s1 := regs[in.Src1]
		s2 := regs[in.Src2]
		var wval int64
		writes := false

		switch in.Op {
		case isa.NOP:
		case isa.ADD:
			wval, writes = s1+s2, true
		case isa.SUB:
			wval, writes = s1-s2, true
		case isa.AND:
			wval, writes = s1&s2, true
		case isa.OR:
			wval, writes = s1|s2, true
		case isa.XOR:
			wval, writes = s1^s2, true
		case isa.SHL:
			wval, writes = s1<<uint64(s2&63), true
		case isa.SHR:
			wval, writes = int64(uint64(s1)>>uint64(s2&63)), true
		case isa.SRA:
			wval, writes = s1>>uint64(s2&63), true
		case isa.SLT:
			wval, writes = boolTo64(s1 < s2), true
		case isa.ADDI:
			wval, writes = s1+in.Imm, true
		case isa.ANDI:
			wval, writes = s1&in.Imm, true
		case isa.ORI:
			wval, writes = s1|in.Imm, true
		case isa.XORI:
			wval, writes = s1^in.Imm, true
		case isa.SHLI:
			wval, writes = s1<<uint64(in.Imm&63), true
		case isa.SHRI:
			wval, writes = int64(uint64(s1)>>uint64(in.Imm&63)), true
		case isa.SRAI:
			wval, writes = s1>>uint64(in.Imm&63), true
		case isa.SLTI:
			wval, writes = boolTo64(s1 < in.Imm), true
		case isa.LUI:
			wval, writes = in.Imm, true
		case isa.MUL:
			wval, writes = s1*s2, true
		case isa.DIV:
			if s2 == 0 {
				wval = 0
			} else {
				wval = s1 / s2
			}
			writes = true
		case isa.REM:
			if s2 == 0 {
				wval = 0
			} else {
				wval = s1 % s2
			}
			writes = true
		case isa.LD:
			ea = s1 + in.Imm
			if ea < 0 || ea >= memLen {
				err = fmt.Errorf("%w: load address %d at PC %d (%v)", ErrMemFault, ea, pc, in)
				break run
			}
			wval, writes = mem[ea], true
		case isa.ST:
			ea = s1 + in.Imm
			if ea < 0 || ea >= memLen {
				err = fmt.Errorf("%w: store address %d at PC %d (%v)", ErrMemFault, ea, pc, in)
				break run
			}
			mem[ea] = s2
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			var t bool
			switch in.Op {
			case isa.BEQ:
				t = s1 == s2
			case isa.BNE:
				t = s1 != s2
			case isa.BLT:
				t = s1 < s2
			case isa.BGE:
				t = s1 >= s2
			}
			if t {
				nextPC, taken = int64(in.Target), 1
			}
		case isa.JMP:
			nextPC, taken = int64(in.Target), 1
		case isa.JAL:
			if in.Dst != isa.Zero {
				wval, writes = pc+1, true
			}
			nextPC, taken = int64(in.Target), 1
		default:
			err = fmt.Errorf("funcsim: unimplemented opcode %v at PC %d", in.Op, pc)
			break run
		}

		if writes && in.Dst != isa.Zero {
			regs[in.Dst] = wval
		}
		if record {
			slot := pc<<1 | taken
			e := ids[slot]
			if e == 0 {
				if e, err = m.intern(b, slot); err != nil {
					err = fmt.Errorf("funcsim: PC %d: %w", pc, err)
					break
				}
			}
			b.AppendID(uint16(e>>1 - 1))
			if e&1 != 0 {
				// Addresses are below memLen <= program.MaxMemWords.
				b.AppendAddr(uint32(ea))
			}
		}

		pc = nextPC
		retired++
	}
	m.PC, m.Retired, m.Regs = pc, retired, regs
	return retired, err
}

// intern interns the tuple of slot (PC<<1 | taken) into b and caches
// and returns its ids entry.
func (m *Machine) intern(b *trace.Builder, slot int64) (uint32, error) {
	pc := slot >> 1
	s := static(pc, &m.Instrs[pc], slot&1 != 0)
	id, err := b.Intern(s)
	if err != nil {
		return 0, err
	}
	e := (uint32(id) + 1) << 1
	if s.Flags&trace.FlagMem != 0 {
		e |= 1
	}
	m.ids[slot] = e
	return e, nil
}

// static derives the trace tuple that every execution of in at pc
// records when it goes the given way: the register sources it actually
// reads (never the zero register), its destination if the write is
// architecturally visible, and for control instructions the target and
// direction.
func static(pc int64, in *isa.Instr, taken bool) trace.Static {
	s := trace.Static{PC: int32(pc), Op: in.Op, Class: isa.ClassOf(in.Op)}
	if in.HasDst() {
		s.Dst, s.Flags = in.Dst, trace.FlagHasDst
	}
	var tmp [2]isa.Reg
	srcs := in.SrcRegs(tmp[:0])
	s.Flags |= uint8(len(srcs)) << trace.NumSrcShift
	if len(srcs) > 0 {
		s.Src1 = srcs[0]
	}
	if len(srcs) > 1 {
		s.Src2 = srcs[1]
	}
	switch s.Class {
	case isa.ClassLoad:
		s.Flags |= trace.FlagLoad
	case isa.ClassStore:
		s.Flags |= trace.FlagStore
	case isa.ClassBranch:
		s.Flags |= trace.FlagBranch
		s.Target = int32(in.Target)
		if taken {
			s.Flags |= trace.FlagTaken
		}
	case isa.ClassJump:
		s.Flags |= trace.FlagJump | trace.FlagTaken
		s.Target = int32(in.Target)
	}
	return s
}

// RunProgram assembles and runs p, recording into b (nil for an
// unobserved run). Convenience for the common one-shot case.
func RunProgram(p *program.Program, b *trace.Builder) (int64, error) {
	m, err := New(p)
	if err != nil {
		return 0, err
	}
	return m.RunCtx(context.Background(), b)
}

func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
