// Package tracetest builds traces from explicit per-instruction records
// and reads traces back as records, for tests. A record spells out
// every field the trace stores implicitly (position, next PC) or once
// per static instruction (the dictionary tuple), so a test can state an
// instruction stream directly and compare one field by field.
//
// Only _test.go files import this package: production code reads
// traces through trace.Trace.Chunks and EachChunk.
package tracetest

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Inst is one dynamically executed instruction.
type Inst struct {
	Seq   int64     // dynamic sequence number, starting at 0
	PC    int64     // static instruction index (word-addressed I-memory)
	Op    isa.Op    // opcode
	Class isa.Class // precomputed class of Op

	Dst      isa.Reg    // destination register (valid if HasDst)
	HasDst   bool       // writes a register
	Src      [2]isa.Reg // source registers actually read
	NumSrc   int        // number of valid entries in Src
	EffAddr  int64      // effective word address for loads/stores
	Taken    bool       // for control instructions: taken?
	Target   int64      // for control instructions: target PC
	NextPC   int64      // PC of the next dynamic instruction
	IsLoad   bool
	IsStore  bool
	IsBranch bool // conditional branch
	IsJump   bool // unconditional control
}

// Of builds a trace from explicit records through trace.Builder, as a
// recorder would: each record's static fields are interned, its id
// appended and, for a load or store, its address. Seq and NextPC are
// not stored: Seq is the position and NextPC is re-derived from the
// taken flag, target and PC. Of panics on a record the trace cannot
// hold: an address outside 32 bits, a non-zero address on an
// instruction that is neither a load nor a store, or a tuple past a
// full dictionary.
func Of(ds ...Inst) *trace.Trace {
	b := trace.NewBuilder()
	for i := range ds {
		d := &ds[i]
		if uint64(d.EffAddr) > math.MaxUint32 || d.EffAddr != 0 && !d.IsLoad && !d.IsStore {
			panic(fmt.Sprintf("tracetest: record %d: effective word address %d outside 32 bits or on a non-memory instruction", i, d.EffAddr))
		}
		fl := uint8(d.NumSrc) << trace.NumSrcShift
		for _, f := range []struct {
			set  bool
			flag uint8
		}{
			{d.HasDst, trace.FlagHasDst}, {d.Taken, trace.FlagTaken},
			{d.IsLoad, trace.FlagLoad}, {d.IsStore, trace.FlagStore},
			{d.IsBranch, trace.FlagBranch}, {d.IsJump, trace.FlagJump},
		} {
			if f.set {
				fl |= f.flag
			}
		}
		id, err := b.Intern(trace.Static{
			PC: int32(d.PC), Target: int32(d.Target),
			Op: d.Op, Class: d.Class, Flags: fl,
			Dst: d.Dst, Src1: d.Src[0], Src2: d.Src[1],
		})
		if err != nil {
			panic(err)
		}
		b.AppendID(id)
		if fl&trace.FlagMem != 0 {
			b.AppendAddr(uint32(d.EffAddr))
		}
	}
	return b.Trace()
}

// Records returns every instruction of tr as a record, in order.
func Records(tr *trace.Trace) []Inst {
	out := make([]Inst, 0, tr.Len())
	Each(tr, func(d *Inst) { out = append(out, *d) })
	return out
}

// Each calls f with every instruction of tr as a record, in order,
// reusing one record: f must copy it to keep it.
func Each(tr *trace.Trace, f func(*Inst)) {
	var d Inst
	for i := range tr.Chunks() {
		ck := &tr.Chunks()[i]
		for j, k := 0, 0; j < ck.N; j++ {
			k = decode(ck, j, k, &d)
			f(&d)
		}
	}
}

// At returns instruction i of tr; i must be in [0, tr.Len()). For a
// load or store it counts the ones before i in its chunk.
func At(tr *trace.Trace, i int64) Inst {
	if i < 0 || i >= tr.Len() {
		panic("tracetest: At index out of range")
	}
	ck := &tr.Chunks()[i>>trace.ChunkShift]
	j, k := int(i&trace.ChunkMask), 0
	if ck.Tuple(j).Flags&trace.FlagMem != 0 {
		for p := 0; p < j; p++ {
			if ck.Tuple(p).Flags&trace.FlagMem != 0 {
				k++
			}
		}
	}
	var d Inst
	decode(ck, j, k, &d)
	return d
}

// decode reconstructs entry j of ck into d, given k, the number of
// loads and stores before it in the chunk, and returns k for entry
// j+1. Seq is Base+j, NextPC is the target when the taken flag is set
// and the fall-through PC otherwise, and EffAddr is 0 unless the
// instruction is a load or store.
func decode(ck *trace.Columns, j, k int, d *Inst) int {
	s := ck.Tuple(j)
	fl := s.Flags
	*d = Inst{
		Seq: ck.Base + int64(j), PC: int64(s.PC), Op: s.Op, Class: s.Class,
		Dst: s.Dst, HasDst: fl&trace.FlagHasDst != 0,
		Src: [2]isa.Reg{s.Src1, s.Src2}, NumSrc: int(fl >> trace.NumSrcShift),
		Taken: fl&trace.FlagTaken != 0, Target: int64(s.Target), NextPC: int64(s.PC) + 1,
		IsLoad: fl&trace.FlagLoad != 0, IsStore: fl&trace.FlagStore != 0,
		IsBranch: fl&trace.FlagBranch != 0, IsJump: fl&trace.FlagJump != 0,
	}
	if d.Taken {
		d.NextPC = d.Target
	}
	if fl&trace.FlagMem != 0 {
		d.EffAddr, k = int64(ck.Addr[k]), k+1
	}
	return k
}
