// Package compiler implements the optimization passes used by the
// paper's compiler case study (§6.2): instruction scheduling and loop
// unrolling over the program IR.
//
// The three optimization levels mirror the paper's GCC settings:
//
//	NoSched — the program as written (gcc -O3 -fno-schedule-insns):
//	          dependent instructions tend to be adjacent.
//	O3      — list scheduling within basic blocks, which stretches
//	          producer→consumer distances.
//	Unroll  — loop unrolling (factor 4 where the trip count allows,
//	          with induction-variable coalescing) followed by
//	          scheduling (gcc -O3 -funroll-loops).
package compiler

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
)

// Level selects an optimization pipeline.
type Level int

// Optimization levels in the order of Figure 8.
const (
	NoSched Level = iota
	O3
	Unroll
)

func (l Level) String() string {
	switch l {
	case NoSched:
		return "nosched"
	case O3:
		return "O3"
	case Unroll:
		return "unroll"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Levels returns the three levels in Figure 8 order.
func Levels() []Level { return []Level{NoSched, O3, Unroll} }

// DefaultUnrollFactor is the unroll factor requested by the Unroll
// level; loops with a smaller trip multiple are unrolled by the largest
// divisor of their trip multiple not exceeding it.
const DefaultUnrollFactor = 4

// Optimize returns a transformed copy of p for the given level. The
// input program is never modified.
func Optimize(p *program.Program, l Level) *program.Program {
	switch l {
	case NoSched:
		return p.Clone()
	case O3:
		return ScheduleProgram(p)
	case Unroll:
		return ScheduleProgram(UnrollProgram(p, DefaultUnrollFactor))
	}
	return p.Clone()
}

// ---------------------------------------------------------------------------
// Instruction scheduling
// ---------------------------------------------------------------------------

// ScheduleProgram list-schedules every basic block of a copy of p,
// maximizing producer→consumer distances while preserving all register
// and memory dependencies. Control instructions stay at the block end.
func ScheduleProgram(p *program.Program) *program.Program {
	q := p.Clone()
	for _, b := range q.Blocks {
		b.Insts = scheduleBlock(b.Insts)
	}
	return q
}

// depDAG captures the intra-block dependence structure.
type depDAG struct {
	preds  [][]int // for each node, indices it must follow
	succs  [][]int
	height []int // longest path to any block exit, in nodes
}

func isMem(op isa.Op) bool {
	c := isa.ClassOf(op)
	return c == isa.ClassLoad || c == isa.ClassStore
}

func isControl(op isa.Op) bool {
	c := isa.ClassOf(op)
	return c == isa.ClassBranch || c == isa.ClassJump || c == isa.ClassHalt
}

// instDst returns the register written by an IR instruction, or
// (Zero, false).
func instDst(in program.Inst) (isa.Reg, bool) {
	mi := isa.Instr{Op: in.Op, Dst: in.Dst, Src1: in.Src1, Src2: in.Src2}
	if mi.HasDst() {
		return in.Dst, true
	}
	return isa.Zero, false
}

// instSrcs returns the registers read by an IR instruction.
func instSrcs(in program.Inst) []isa.Reg {
	mi := isa.Instr{Op: in.Op, Dst: in.Dst, Src1: in.Src1, Src2: in.Src2}
	var buf [4]isa.Reg
	return mi.SrcRegs(buf[:0])
}

// buildDAG constructs dependence edges: register RAW/WAR/WAW, a
// conservative order among memory operations (loads may pass loads but
// nothing passes a store), and control pinned last.
func buildDAG(insts []program.Inst) *depDAG {
	n := len(insts)
	d := &depDAG{
		preds:  make([][]int, n),
		succs:  make([][]int, n),
		height: make([]int, n),
	}
	addEdge := func(from, to int) {
		if from == to {
			return
		}
		d.preds[to] = append(d.preds[to], from)
		d.succs[from] = append(d.succs[from], to)
	}

	lastWrite := map[isa.Reg]int{}
	lastReads := map[isa.Reg][]int{}
	lastStore := -1
	lastControl := -1
	var loadsSinceStore []int

	for i, in := range insts {
		if lastControl >= 0 {
			// Nothing moves above a branch: blocks may carry
			// fall-through code after a conditional branch, and that
			// code must stay after it.
			addEdge(lastControl, i)
		}
		for _, r := range instSrcs(in) {
			if w, ok := lastWrite[r]; ok {
				addEdge(w, i) // RAW
			}
		}
		if dst, ok := instDst(in); ok {
			if w, ok := lastWrite[dst]; ok {
				addEdge(w, i) // WAW
			}
			for _, rd := range lastReads[dst] {
				addEdge(rd, i) // WAR
			}
		}
		if isMem(in.Op) {
			if isa.ClassOf(in.Op) == isa.ClassStore {
				if lastStore >= 0 {
					addEdge(lastStore, i)
				}
				for _, ld := range loadsSinceStore {
					addEdge(ld, i) // store after prior loads
				}
				lastStore = i
				loadsSinceStore = loadsSinceStore[:0]
			} else {
				if lastStore >= 0 {
					addEdge(lastStore, i) // load after prior store
				}
				loadsSinceStore = append(loadsSinceStore, i)
			}
		}
		if isControl(in.Op) {
			// Nothing moves below a branch either.
			for j := 0; j < i; j++ {
				addEdge(j, i)
			}
			lastControl = i
		}
		// Bookkeeping after edges.
		for _, r := range instSrcs(in) {
			lastReads[r] = append(lastReads[r], i)
		}
		if dst, ok := instDst(in); ok {
			lastWrite[dst] = i
			lastReads[dst] = nil
		}
	}

	// Heights by reverse topological order (indices are topological
	// because edges always go forward).
	for i := n - 1; i >= 0; i-- {
		h := 0
		for _, s := range d.succs[i] {
			if d.height[s]+1 > h {
				h = d.height[s] + 1
			}
		}
		d.height[i] = h
	}
	return d
}

// scheduleBlock greedily emits ready instructions, preferring the
// candidate whose nearest already-scheduled producer is farthest away
// (stretching dependency distances), breaking ties by critical-path
// height and then by source order.
func scheduleBlock(insts []program.Inst) []program.Inst {
	n := len(insts)
	if n < 3 {
		return insts
	}
	d := buildDAG(insts)

	remaining := n
	unscheduledPreds := make([]int, n)
	for i := range insts {
		unscheduledPreds[i] = len(d.preds[i])
	}
	schedPos := make([]int, n)
	for i := range schedPos {
		schedPos[i] = -1
	}
	out := make([]program.Inst, 0, n)

	for remaining > 0 {
		best := -1
		bestDist, bestHeight := -1, -1
		for i := 0; i < n; i++ {
			if schedPos[i] >= 0 || unscheduledPreds[i] > 0 {
				continue
			}
			// Distance from the nearest scheduled producer to the slot
			// this instruction would occupy (len(out)).
			dist := n + 1 // no producer: unbounded
			for _, p := range d.preds[i] {
				if gap := len(out) - schedPos[p]; gap < dist {
					dist = gap
				}
			}
			if dist > bestDist || (dist == bestDist && d.height[i] > bestHeight) {
				best, bestDist, bestHeight = i, dist, d.height[i]
			}
		}
		if best < 0 {
			// Cycle would indicate a DAG bug; fall back to source order.
			return insts
		}
		schedPos[best] = len(out)
		out = append(out, insts[best])
		for _, s := range d.succs[best] {
			unscheduledPreds[s]--
		}
		remaining--
	}
	return out
}

// ---------------------------------------------------------------------------
// Loop unrolling
// ---------------------------------------------------------------------------

// UnrollProgram unrolls every eligible loop of a copy of p by the
// largest divisor of its TripMultiple that does not exceed factor.
// Eligible loops are single-block self-loops (LoopHead with latch ==
// label) whose block ends in a conditional branch back to itself and
// whose TripMultiple is set. Induction variables updated by a single
// `addi r, r, c` are coalesced into one update per unrolled iteration
// when all their other uses are load/store base registers (whose
// displacements are then adjusted); otherwise per-copy updates are
// kept, which is still correct.
func UnrollProgram(p *program.Program, factor int) *program.Program {
	q := p.Clone()
	for _, b := range q.Blocks {
		if !b.LoopHead || b.LoopLatch != b.Label || b.TripMultiple <= 0 {
			continue
		}
		u := unrollFactorFor(b.TripMultiple, factor)
		if u <= 1 {
			continue
		}
		if insts, ok := unrollBlock(b, u); ok {
			b.Insts = insts
		}
	}
	return q
}

// unrollFactorFor returns the largest divisor of tripMultiple that is
// at most requested.
func unrollFactorFor(tripMultiple int64, requested int) int {
	best := 1
	for u := 2; u <= requested; u++ {
		if tripMultiple%int64(u) == 0 {
			best = u
		}
	}
	return best
}

// induction describes one `addi r, r, step` update in a loop body.
type induction struct {
	reg         isa.Reg
	step        int64
	updateIdx   int
	coalescible bool
}

func unrollBlock(b *program.Block, u int) ([]program.Inst, bool) {
	n := len(b.Insts)
	if n < 2 {
		return nil, false
	}
	back := b.Insts[n-1]
	if isa.ClassOf(back.Op) != isa.ClassBranch || back.Label != b.Label {
		return nil, false
	}
	body := b.Insts[:n-1]
	for _, in := range body {
		if isControl(in.Op) {
			return nil, false // replicating control flow would be wrong
		}
	}

	// Find induction candidates: registers with exactly one update of
	// the form `addi r, r, c` in the body.
	updates := map[isa.Reg][]int{}
	for i, in := range body {
		if in.Op == isa.ADDI && in.Dst == in.Src1 && in.Dst != isa.Zero {
			updates[in.Dst] = append(updates[in.Dst], i)
		}
	}
	ind := map[isa.Reg]*induction{}
	for r, idxs := range updates {
		if len(idxs) != 1 {
			continue
		}
		// Reject if the register is written anywhere else in the body.
		written := 0
		for _, in := range body {
			if dst, ok := instDst(in); ok && dst == r {
				written++
			}
		}
		if written != 1 {
			continue
		}
		ind[r] = &induction{reg: r, step: body[idxs[0]].Imm, updateIdx: idxs[0], coalescible: true}
	}
	if len(ind) == 0 {
		return nil, false
	}

	// Coalescibility: every read of the induction register (except by
	// its own update) must be a load/store base (so a displacement
	// adjustment preserves the address) and must come BEFORE the update
	// in the body (so copy k sees base + k*step exactly).
	for r, iv := range ind {
		for i, in := range body {
			if i == iv.updateIdx {
				continue
			}
			usesR := false
			for _, s := range instSrcs(in) {
				if s == r {
					usesR = true
				}
			}
			if !usesR {
				continue
			}
			isBase := (in.Op == isa.LD || in.Op == isa.ST) && in.Src1 == r &&
				!(in.Op == isa.ST && in.Src2 == r)
			if !isBase || i > iv.updateIdx {
				iv.coalescible = false
			}
		}
		// The backward branch may read the induction register; with a
		// coalesced update placed before the branch the final compare
		// still sees head-value + u*step, which is exactly the rolled
		// loop's value after u iterations — safe because the trip count
		// is a multiple of u.
		_ = r
	}

	out := make([]program.Inst, 0, u*n)
	for k := 0; k < u; k++ {
		for i, in := range body {
			if iv, ok := ind[in.Dst]; ok && i == iv.updateIdx && iv.coalescible {
				continue // emitted once, coalesced, after the copies
			}
			cp := in
			if (cp.Op == isa.LD || cp.Op == isa.ST) && k > 0 {
				if iv, ok := ind[cp.Src1]; ok && iv.coalescible {
					cp.Imm += int64(k) * iv.step
				}
			}
			out = append(out, cp)
		}
	}
	// Coalesced induction updates, then the backward branch.
	for _, in := range body {
		if iv, ok := ind[in.Dst]; ok && in.Op == isa.ADDI && iv.coalescible {
			cp := in
			cp.Imm = iv.step * int64(u)
			out = append(out, cp)
		}
	}
	out = append(out, back)
	return out, true
}
