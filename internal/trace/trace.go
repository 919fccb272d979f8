// Package trace defines the dynamic-instruction stream produced by the
// functional simulator and consumed by the profiler, the cache and
// branch-predictor simulators and the detailed pipeline simulator.
//
// The functional simulator records a run straight into the chunked,
// dictionary-encoded Trace store (see store.go) through a Builder, at
// one store per instruction and a second for a load or store's
// address; the trace is then replayed across every
// machine configuration of interest. Readers walk its columns
// directly, or receive reconstructed DynInst records through a
// ReplayCtx callback.
package trace

import "repro/internal/isa"

// DynInst is one dynamically executed instruction.
type DynInst struct {
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
