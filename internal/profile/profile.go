// Package profile computes the machine-independent program statistics
// of Table 1 in the paper: the dynamic instruction count N, the
// per-type counts N_i of long-latency instructions, and the three
// dependency-distance profiles deps_unit(d), deps_LL(d) and deps_ld(d).
//
// These statistics are a property of the program binary alone: one
// profiling pass suffices to drive the mechanistic model across the
// whole microarchitecture design space. The pass (Profiler) reads a
// trace chunk by chunk, so it can run beside the functional execution
// that records the trace, on each chunk as soon as it is sealed.
package profile

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
)

// MaxDepDist is the largest dependency distance tracked. The model
// needs distances up to 2W-1; with W ≤ 8 supported, 64 gives headroom
// and also feeds the out-of-order model's ILP analysis.
const MaxDepDist = 64

// DepProfile is a histogram over dependency distances: Count[d] is the
// number of consumer instructions whose *shortest* producer distance is
// d, for 1 ≤ d ≤ MaxDepDist. Index 0 is unused.
type DepProfile struct {
	Count [MaxDepDist + 1]int64
}

// Total returns the number of recorded dependencies.
func (p *DepProfile) Total() int64 {
	var t int64
	for _, c := range p.Count {
		t += c
	}
	return t
}

// UpTo returns the number of dependencies with distance ≤ d.
func (p *DepProfile) UpTo(d int) int64 {
	if d > MaxDepDist {
		d = MaxDepDist
	}
	var t int64
	for i := 1; i <= d; i++ {
		t += p.Count[i]
	}
	return t
}

// Mean returns the mean recorded dependency distance (0 if empty).
func (p *DepProfile) Mean() float64 {
	var n, s int64
	for d := 1; d <= MaxDepDist; d++ {
		n += p.Count[d]
		s += int64(d) * p.Count[d]
	}
	if n == 0 {
		return 0
	}
	return float64(s) / float64(n)
}

// Profile holds the machine-independent statistics of one program.
type Profile struct {
	Name string

	N       int64                 // dynamic instruction count
	ByClass [isa.NumClasses]int64 // dynamic count per class
	ByOp    [isa.NumOps]int64     // dynamic count per opcode, indexed by isa.Op
	NMul    int64                 // multiply count (long latency)
	NDiv    int64                 // divide/remainder count (long latency)
	NLoad   int64
	NStore  int64
	NBranch int64 // conditional branches
	NJump   int64 // unconditional control
	NTaken  int64 // taken conditional branches

	// Dependency-distance profiles keyed by producer type. The consumer
	// is attributed to its *nearest* producer; when two producers are at
	// the same distance, loads take priority over long-latency ops over
	// unit-latency ops (the stall the pipeline actually sees).
	DepsUnit DepProfile // producer is a unit-latency instruction
	DepsLL   DepProfile // producer is mul/div
	DepsLd   DepProfile // producer is a load
}

// producerKind classifies a register's writer for the dependency
// profiles.
type producerKind uint8

const (
	prodUnit producerKind = iota
	prodLL
	prodLoad
)

// Register slots of the dependency pass beyond the architectural
// registers: noSrc stands in for a missing source and is never written;
// noDst absorbs the writes of instructions without a destination and is
// never read.
const (
	noSrc = isa.NumRegs + iota
	noDst
)

// Profiler computes a trace's profile chunk by chunk, in trace order,
// over each chunk's dictionary-id column, so that it can run beside
// the execution that records the trace. Everything but the dependency
// distances is a property of the dictionary tuple alone, so the counts
// are folded from a histogram of ids. For the distances each tuple's
// sources, destination and producer kind are derived as its id first
// appears; the pass keeps, per register, the position of its last
// writer and that writer's kind, across chunks. Positions are trace
// positions, so a trace that concatenates several runs of a program is
// profiled as one continuous execution. The zero Profiler has seen no
// instruction.
type Profiler struct {
	meta []struct{ src1, src2, dst, kind uint8 }
	hist []int64

	// last[r] is (bias+position)<<2 | kind of register r's latest
	// writer. The nearest producer of two sources is then the larger
	// entry: equal positions are one writer, so its kind is
	// unambiguous. The zero entry, "no writer", sits far enough below
	// every biased position that its distance is never counted. 256
	// entries let a uint8 index go unchecked.
	last [256]int64
	dist [4][MaxDepDist + 1]int64
}

// Add profiles the next chunk of the trace. ck.Static must extend the
// dictionary prefix the earlier chunks were given.
func (pf *Profiler) Add(ck *trace.Columns) {
	for _, s := range ck.Static[len(pf.meta):] {
		e := struct{ src1, src2, dst, kind uint8 }{noSrc, noSrc, noDst, uint8(prodUnit)}
		switch s.Class {
		case isa.ClassMul, isa.ClassDiv:
			e.kind = uint8(prodLL)
		case isa.ClassLoad:
			e.kind = uint8(prodLoad)
		}
		if n := s.Flags >> trace.NumSrcShift; n >= 1 {
			e.src1 = uint8(s.Src1)
			if n >= 2 {
				e.src2 = uint8(s.Src2)
			}
		}
		if s.Flags&trace.FlagHasDst != 0 {
			e.dst = uint8(s.Dst)
		}
		pf.meta, pf.hist = append(pf.meta, e), append(pf.hist, 0)
	}
	if ck.Wide() {
		add(pf, ck.Base, ck.ID16[:ck.N])
	} else {
		add(pf, ck.Base, ck.ID8[:ck.N])
	}
}

// add profiles the ids of a chunk whose first entry is instruction
// base.
func add[I trace.ID](pf *Profiler, base int64, ids []I) {
	const bias = 1 << 40
	meta, hist, last, dist := pf.meta, pf.hist, &pf.last, &pf.dist
	i := bias + base
	for _, id := range ids {
		hist[id]++
		e := meta[id]
		w := max(last[e.src1], last[e.src2])
		if d := i - w>>2; uint64(d-1) < MaxDepDist {
			dist[w&3][d]++
		}
		last[e.dst] = i<<2 | int64(e.kind)
		i++
	}
}

// Finish returns the profile of the chunks added so far; dict is the
// trace's whole dictionary.
func (pf *Profiler) Finish(name string, dict []trace.Static) *Profile {
	p := &Profile{Name: name}
	p.DepsUnit.Count = pf.dist[prodUnit]
	p.DepsLL.Count = pf.dist[prodLL]
	p.DepsLd.Count = pf.dist[prodLoad]
	for id, n := range pf.hist {
		s := &dict[id]
		p.N += n
		p.ByClass[s.Class] += n
		p.ByOp[s.Op] += n
		switch s.Class {
		case isa.ClassMul:
			p.NMul += n
		case isa.ClassDiv:
			p.NDiv += n
		case isa.ClassLoad:
			p.NLoad += n
		case isa.ClassStore:
			p.NStore += n
		case isa.ClassBranch:
			p.NBranch += n
			if s.Flags&trace.FlagTaken != 0 {
				p.NTaken += n
			}
		case isa.ClassJump:
			p.NJump += n
		}
	}
	return p
}

// Mix returns the fraction of dynamic instructions in the given class.
func (p *Profile) Mix(cl isa.Class) float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.ByClass[cl]) / float64(p.N)
}

// String summarizes the profile.
func (p *Profile) String() string {
	return fmt.Sprintf(
		"%s: N=%d alu=%.1f%% mul=%.2f%% div=%.2f%% ld=%.1f%% st=%.1f%% br=%.1f%% (taken %.1f%%) depU=%d depLL=%d depLd=%d",
		p.Name, p.N,
		100*p.Mix(isa.ClassALU), 100*p.Mix(isa.ClassMul), 100*p.Mix(isa.ClassDiv),
		100*p.Mix(isa.ClassLoad), 100*p.Mix(isa.ClassStore), 100*p.Mix(isa.ClassBranch),
		100*safeDiv(float64(p.NTaken), float64(p.NBranch)),
		p.DepsUnit.Total(), p.DepsLL.Total(), p.DepsLd.Total(),
	)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
