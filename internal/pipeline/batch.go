package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// The config-parallel batch replay evaluates every resident design
// point in one chunk-major sweep over the trace. It is built on two
// observations about SimulateAnnotated's machine:
//
//  1. The partition of the trace into fetch groups is a pure function
//     of (width, flags, I-side annotation classes, mispredict bits) —
//     the cycle at which a group is fetched never changes *which*
//     instructions it holds. One decomposition pass per distinct
//     (width, memory plane, branch plane) therefore serves every
//     depth/frequency point that shares those components.
//
//  2. The front-end is a rigid conveyor: groups advance one stage per
//     cycle into empty slots, and admission drains the head group in
//     order. The per-cycle lockstep loop collapses into two
//     recurrences per group — with f_k the fetch cycle and d_k the
//     cycle group k fully drains into execute,
//
//     f_k          = max(nf_k, f_{k-1}+1, d_{k-D})
//     admitStart_k = max(f_k + D, d_{k-1} + 1)
//
//     (nf_k is the next-fetch constraint left by group k-1's end:
//     +1 for a full group, +2 for a taken-control bubble, the I-miss
//     refill latency, or the resolving branch's admission cycle + 1
//     after a mispredict; d_{k-D} is when the D-deep conveyor frees
//     its fetch slot). Admission within the group replays the same
//     burst arithmetic as the scalar kernel — dependence stalls,
//     mul/div execute blocking, memory-stage occupancy — but only
//     touches cycles where something happens.
//
// Per instruction the batch kernel reads one pre-decoded 32-bit uop
// (sources, destination, class kind, latency classes, control flags)
// built once per distinct memory plane and shared by every lane, so a
// chunk's working set stays cache-resident while the config axis
// streams. Results are bit-identical to SimulateAnnotated for every
// point, differentially tested across the full Table 2 space.

// BatchPoint pairs one design point with its annotation planes. Points
// sharing a component should share the plane pointers (the harness's
// canonicalization layer guarantees this) so the batch kernel can pool
// their decomposition and uop work.
type BatchPoint struct {
	Cfg uarch.Config
	Ann Annotation
}

// Packed uop encoding (uint32): one pre-decoded instruction record
// combining the trace columns and annotation byte the timing replay
// consumes. Register fields are 6 bits so two sentinel slots fit:
// absent sources read slot uRegDummy (pinned to minCycle, never
// stalls) and absent destinations write slot uRegTrash (never read),
// making the dependence check and the destination write branchless.
const (
	uSrc1Shift = 0       // 6 bits
	uSrc2Shift = 6       // 6 bits
	uDstShift  = 12      // 6 bits
	uKindShift = 18      // 2 bits: 0 simple, 1 mul, 2 div, 3 mem
	uLoadFwd   = 1 << 20 // load with a destination: forward at memory exit
	uDClsShift = 21      // 3 bits: data-side annotation class
	uIClsShift = 24      // 3 bits: instruction-side annotation class
	uJump      = 1 << 27
	uBranch    = 1 << 28
	uTaken     = 1 << 29

	ukSimple = 0
	ukMul    = 1
	ukDiv    = 2
	ukMem    = 3

	uRegDummy = isa.NumRegs     // read-only: always ready
	uRegTrash = isa.NumRegs + 1 // write-only: never read
	// The register file is sized to the 6-bit uop field so the masked
	// index is provably in range (no bounds checks on the hot path).
	uRegSlots = 64
)

// Fetch-group end kinds produced by decomposition.
const (
	bkPlain      = iota // ended full or at trace end: next fetch at f+1
	bkBubble            // jump or predicted-taken branch: next fetch at f+2
	bkIMiss             // I-side miss after the group: next fetch at f+refill
	bkMispredict        // mispredicted branch: fetch blocks until it resolves
)

// bgroup is one decomposed fetch group. size is the instruction count
// (1..width); lead, when non-zero, is the I-side class of a miss on
// the group's first instruction that was charged by an empty fetch
// attempt before the group itself was fetched.
type bgroup struct {
	size uint8
	kind uint8
	cls  uint8 // I-side class of a bkIMiss end
	lead uint8
}

// minCycle initializes the fetch/drain recurrences: far enough below
// zero that max() never selects an uninitialized term, far enough from
// MinInt64 that the +1 arithmetic cannot wrap.
const minCycle = math.MinInt64 / 4

// buildUops pre-decodes the trace columns and one memory plane into
// packed uops plus a fetch-event bitset (one bit per instruction, set
// when the instruction can end a fetch group: control transfer or
// I-side miss). LLBlocks (the mul/div count, identical for every
// design point) falls out of the same pass.
func buildUops(tr *trace.Trace, mem *trace.BytePlane) (uops []uint32, ev []uint64, llBlocks int64) {
	n := int(tr.Len())
	uops = make([]uint32, n)
	ev = make([]uint64, (n+63)/64)
	cols := tr.Chunks()
	memCh := mem.Chunks()
	for ci := range cols {
		ck := &cols[ci]
		mb := memCh[ci]
		base := ci << trace.ChunkShift
		for j := 0; j < ck.N; j++ {
			st := &ck.Static[ck.ID[j]]
			fl := st.Flags
			m := mb[j]
			s1, s2, dst := uint32(uRegDummy), uint32(uRegDummy), uint32(uRegTrash)
			switch fl >> trace.NumSrcShift {
			case 2:
				s2 = uint32(st.Src2)
				fallthrough
			case 1:
				s1 = uint32(st.Src1)
			}
			if fl&trace.FlagHasDst != 0 {
				dst = uint32(st.Dst)
			}
			u := s1 | s2<<uSrc2Shift | dst<<uDstShift |
				uint32(m&trace.AnnSideMask)<<uIClsShift |
				uint32((m>>trace.AnnDShift)&trace.AnnSideMask)<<uDClsShift
			switch st.Class {
			case isa.ClassMul:
				u |= ukMul << uKindShift
				llBlocks++
			case isa.ClassDiv:
				u |= ukDiv << uKindShift
				llBlocks++
			case isa.ClassLoad, isa.ClassStore:
				u |= ukMem << uKindShift
				if fl&(trace.FlagLoad|trace.FlagHasDst) == trace.FlagLoad|trace.FlagHasDst {
					u |= uLoadFwd
				}
			}
			if fl&trace.FlagJump != 0 {
				u |= uJump
			}
			if fl&trace.FlagBranch != 0 {
				u |= uBranch
			}
			if fl&trace.FlagTaken != 0 {
				u |= uTaken
			}
			uops[base+j] = u
			if fl&(trace.FlagJump|trace.FlagBranch) != 0 || m&trace.AnnSideMask != 0 {
				i := base + j
				ev[i>>6] |= 1 << uint(i&63)
			}
		}
	}
	return uops, ev, llBlocks
}

// bmem is the per-memory-plane shared state: uops and event bitset.
type bmem struct {
	uops     []uint32
	ev       []uint64
	llBlocks int64
}

// blane is one design point's private timing state. Everything here is
// the analytic image of the scalar kernel's mutable state.
type blane struct {
	out      *Result
	extraTab [8]int64
	mulLat   int64
	divLat   int64
	depth    int64

	regReady [uRegSlots]int64

	nf    int64 // next-fetch constraint
	fPrev int64 // previous group's fetch cycle
	dPrev int64 // previous group's drain cycle
	// dRing holds the last depth drain cycles (depth <= 9 in the Table 2
	// domain); a fixed-size array lets the runners index it with ri&15,
	// which the compiler proves in-bounds.
	dRing [16]int64
	ri    int

	exB       int64 // execute blocked until this cycle (mul/div)
	memFree   int64 // memory stage free for a new group at this cycle
	depStall  int64
	lastAdmit int64
	pos       int // next instruction index this lane will admit

	// Within-group scratch used by the interleaved multi-lane runner.
	c        int64
	memCum   int64
	admitted bool
	hasMem   bool
}

// bstream is one (width, memory plane, branch plane) decomposition
// shared by all lanes (depth/frequency points) on those components.
// mask has bit c set when I-side annotation class c costs a non-zero
// refill on this stream's lanes: the scalar kernel only breaks a fetch
// group when the decoded latency is positive, and a latency that
// rounds to zero cycles must not break here either. Lanes whose
// latency tables zero out different classes get their own stream.
type bstream struct {
	mem   *bmem
	br    [][]uint64
	width int
	mask  uint32

	lanes []*blane

	pos     int // next instruction to decompose
	stalled int // instruction whose I-stall was already charged
	evPos   int // next fetch-event index >= pos (cached)
	groups  []bgroup

	mispredicts  int64
	takenBubbles int64
}

// nextEvent returns the first set bit of ev at index >= from, or n.
func nextEvent(ev []uint64, from, n int) int {
	if from >= n {
		return n
	}
	w := from >> 6
	word := ev[w] &^ (1<<uint(from&63) - 1)
	for word == 0 {
		w++
		if w >= len(ev) {
			return n
		}
		word = ev[w]
	}
	i := w<<6 + bits.TrailingZeros64(word)
	if i > n {
		return n
	}
	return i
}

// decompose extends the stream's fetch-group decomposition until every
// group starting before limit has been emitted (the final group may
// extend past limit; the next call resumes after it). n is the trace
// length.
func (s *bstream) decompose(limit, n int) {
	s.groups = s.groups[:0]
	uops := s.mem.uops
	ev := s.mem.ev
	W := s.width
	pos := s.pos
	stalled := s.stalled
	evPos := s.evPos
	for pos < limit {
		var g bgroup
		if evPos < pos {
			evPos = nextEvent(ev, pos, n)
		}
		if pos == evPos && pos < n {
			// A not-yet-charged I-side miss on the group's first
			// instruction stalls an empty fetch attempt before the
			// group is fetched.
			if ic := (uops[pos] >> uIClsShift) & 7; s.mask>>ic&1 != 0 && pos != stalled {
				g.lead = uint8(ic)
				stalled = pos
			}
		}
		size := 0
		for size < W && pos < n {
			if pos < evPos {
				// Bulk: no control transfer, no I-side event until
				// evPos — instructions just join the group.
				m := evPos - pos
				if m > W-size {
					m = W - size
				}
				if pos+m > n {
					m = n - pos
				}
				size += m
				pos += m
				continue
			}
			u := uops[pos]
			if ic := (u >> uIClsShift) & 7; s.mask>>ic&1 != 0 && pos != stalled {
				// I-side miss ends the group before this instruction;
				// the stall is charged once, so the next group
				// includes it.
				g.kind = bkIMiss
				g.cls = uint8(ic)
				stalled = pos
				break
			}
			pos++
			size++
			evPos = nextEvent(ev, pos, n)
			if u&uJump != 0 {
				g.kind = bkBubble
				s.takenBubbles++
				break
			}
			if u&uBranch != 0 {
				i := pos - 1
				if s.br[i>>trace.ChunkShift][uint(i&trace.ChunkMask)>>6]&(1<<uint(i&63)) != 0 {
					g.kind = bkMispredict
					s.mispredicts++
					break
				}
				if u&uTaken != 0 {
					g.kind = bkBubble
					s.takenBubbles++
					break
				}
				// Correctly predicted not-taken: the group continues.
			}
		}
		g.size = uint8(size)
		s.groups = append(s.groups, g)
	}
	s.pos = pos
	s.stalled = stalled
	s.evPos = evPos
}

// run replays the decomposed groups on one lane, advancing its timing
// state group by group via the fetch/drain recurrences.
//
// Invariant used by every runner: nf >= fPrev+1 always, because each
// group-end kind sets nf to at least f+1 (plain +1, bubble +2, I-miss
// +refill with refill > 0 by the stream mask, mispredict c+1 with
// c >= f+D >= f+1), and the initial state has fPrev = minCycle. The
// fetch recurrence therefore needs no fPrev term.
func (ln *blane) run(uops []uint32, groups []bgroup) {
	extraTab := &ln.extraTab
	regReady := &ln.regReady
	nf, fPrev, dPrev := ln.nf, ln.fPrev, ln.dPrev
	dRing, ri := &ln.dRing, ln.ri
	exB, memFree := ln.exB, ln.memFree
	depStall := ln.depStall
	D := ln.depth
	dLen := int(D)
	mulLat, divLat := ln.mulLat, ln.divLat
	pos := ln.pos

	for _, g := range groups {
		// Fetch cycle: first cycle >= the next-fetch constraint with
		// the fetch slot free (the D-deep conveyor has a hole), plus a
		// leading I-refill charged by an empty attempt.
		a := max(nf, dRing[ri&15])
		f := a
		if g.lead != 0 {
			f = a + extraTab[g.lead]
		}

		// First admission cycle: conveyor transit after fetch, the
		// previous group's drain, and the standing execute/memory
		// blocks.
		c := max(f+D, dPrev+1, exB, memFree-1)

		admitted := false
		var memCum int64
		hasMem := false
		end := pos + int(g.size)
		for pos < end {
			u := uops[pos]
			r := max(regReady[u&63], regReady[(u>>uSrc2Shift)&63])
			if r > c {
				if admitted {
					// The blocked cycle ends: release its
					// memory-stage occupancy, then move to the
					// next structurally clear cycle.
					if hasMem {
						memFree = c + 2 + memCum
						hasMem = false
						memCum = 0
					}
					c = max(c+1, exB, memFree-1)
					admitted = false
				}
				if r > c {
					depStall += r - c
					c = r
				}
			}
			pos++
			admitted = true
			if k := (u >> uKindShift) & 3; k == ukSimple {
				regReady[(u>>uDstShift)&63] = c + 1
			} else if k == ukMem {
				memCum += extraTab[(u>>uDClsShift)&7]
				hasMem = true
				if u&uLoadFwd != 0 {
					regReady[(u>>uDstShift)&63] = c + 2 + memCum
				}
			} else {
				lat := mulLat
				if k == ukDiv {
					lat = divLat
				}
				regReady[(u>>uDstShift)&63] = c + lat
				exB = c + lat
				if pos < end {
					// Newer instructions stall behind the blocked
					// execute stage: end the cycle.
					if hasMem {
						memFree = c + 2 + memCum
						hasMem = false
						memCum = 0
					}
					c = max(exB, memFree-1)
					admitted = false
				}
			}
		}
		// Group drained at cycle c.
		if hasMem {
			memFree = c + 2 + memCum
		}
		switch g.kind {
		case bkPlain:
			nf = f + 1
		case bkBubble:
			nf = f + 2
		case bkIMiss:
			nf = f + extraTab[g.cls]
		case bkMispredict:
			nf = c + 1
		}
		fPrev = f
		dPrev = c
		dRing[ri&15] = c
		ri++
		if ri == dLen {
			ri = 0
		}
	}

	ln.nf, ln.fPrev, ln.dPrev = nf, fPrev, dPrev
	ln.ri = ri
	ln.exB, ln.memFree = exB, memFree
	ln.depStall = depStall
	ln.lastAdmit = dPrev
	ln.pos = pos
}

// stallTo resolves a dependence stall at cycle c against operand-ready
// cycle r: a cycle that already admitted instructions first closes
// (releasing its memory-stage occupancy and advancing past standing
// blocks), then the remaining gap to r is charged as dependence stall.
// Outlined so the admission fast path stays branch-light.
func (ln *blane) stallTo(r, c int64) int64 {
	if ln.admitted {
		if ln.hasMem {
			ln.memFree = c + 2 + ln.memCum
			ln.hasMem = false
			ln.memCum = 0
		}
		c = max(c+1, ln.exB, ln.memFree-1)
		ln.admitted = false
	}
	if r > c {
		ln.depStall += r - c
		c = r
	}
	return c
}

// runMulti advances every lane of the stream over one decomposed group
// batch in a single inst-major pass: the uop decode and group control
// run once, and the lanes' independent timing chains interleave so the
// processor can overlap them. The per-instruction kind dispatch is
// hoisted out of the lane loop so each lane pass is a short straight
// line. Semantically identical to calling run on each lane; used
// whenever a stream has more than one lane.
func (s *bstream) runMulti(groups []bgroup) {
	if len(groups) == 0 {
		return
	}
	uops := s.mem.uops
	lanes := s.lanes
	pos := lanes[0].pos

	// Prologue of the first group; every later group's prologue is
	// fused into its predecessor's epilogue below, so each group costs
	// one lane pass instead of two.
	g0 := groups[0]
	for _, ln := range lanes {
		a := max(ln.nf, ln.dRing[ln.ri&15])
		f := a
		if g0.lead != 0 {
			f = a + ln.extraTab[g0.lead]
		}
		c := max(f+ln.depth, ln.dPrev+1, ln.exB, ln.memFree-1)
		ln.fPrev = f
		ln.c = c
		ln.admitted = false
		ln.memCum = 0
		ln.hasMem = false
	}
	for gi := range groups {
		g := groups[gi]
		end := pos + int(g.size)
		for p := pos; p < end; p++ {
			u := uops[p]
			s1 := u & 63
			s2 := (u >> uSrc2Shift) & 63
			dst := (u >> uDstShift) & 63
			switch (u >> uKindShift) & 3 {
			case ukSimple:
				for _, ln := range lanes {
					c := ln.c
					r := max(ln.regReady[s1], ln.regReady[s2])
					if r > c {
						c = ln.stallTo(r, c)
					}
					ln.admitted = true
					ln.regReady[dst] = c + 1
					ln.c = c
				}
			case ukMem:
				dcls := (u >> uDClsShift) & 7
				fwd := u&uLoadFwd != 0
				for _, ln := range lanes {
					c := ln.c
					r := max(ln.regReady[s1], ln.regReady[s2])
					if r > c {
						c = ln.stallTo(r, c)
					}
					ln.admitted = true
					ln.memCum += ln.extraTab[dcls]
					ln.hasMem = true
					if fwd {
						ln.regReady[dst] = c + 2 + ln.memCum
					}
					ln.c = c
				}
			default:
				isDiv := (u>>uKindShift)&3 == ukDiv
				last := p+1 == end
				for _, ln := range lanes {
					c := ln.c
					r := max(ln.regReady[s1], ln.regReady[s2])
					if r > c {
						c = ln.stallTo(r, c)
					}
					lat := ln.mulLat
					if isDiv {
						lat = ln.divLat
					}
					ln.regReady[dst] = c + lat
					ln.exB = c + lat
					if last {
						ln.admitted = true
					} else {
						// Newer instructions stall behind the blocked
						// execute stage: end the cycle.
						if ln.hasMem {
							ln.memFree = c + 2 + ln.memCum
							ln.hasMem = false
							ln.memCum = 0
						}
						c = max(ln.exB, ln.memFree-1)
						ln.admitted = false
					}
					ln.c = c
				}
			}
		}
		pos = end
		if gi+1 < len(groups) {
			// Fused epilogue(g) + prologue(g+1): one lane pass closes
			// the drained group and opens the next. Mid-batch, nf and
			// dPrev live only inside this pass (the next prologue
			// consumes them immediately); only the final group's
			// epilogue below persists them.
			ng := groups[gi+1]
			for _, ln := range lanes {
				c := ln.c
				if ln.hasMem {
					ln.memFree = c + 2 + ln.memCum
					ln.memCum = 0
					ln.hasMem = false
				}
				var nf int64
				switch g.kind {
				case bkPlain:
					nf = ln.fPrev + 1
				case bkBubble:
					nf = ln.fPrev + 2
				case bkIMiss:
					nf = ln.fPrev + ln.extraTab[g.cls]
				default:
					nf = c + 1
				}
				dRing, ri := &ln.dRing, ln.ri
				dRing[ri&15] = c
				ri++
				if ri == int(ln.depth) {
					ri = 0
				}
				ln.ri = ri
				a := max(nf, dRing[ri&15])
				f := a
				if ng.lead != 0 {
					f = a + ln.extraTab[ng.lead]
				}
				ln.fPrev = f
				ln.c = max(f+ln.depth, c+1, ln.exB, ln.memFree-1)
				ln.admitted = false
			}
		} else {
			for _, ln := range lanes {
				c := ln.c
				if ln.hasMem {
					ln.memFree = c + 2 + ln.memCum
				}
				switch g.kind {
				case bkPlain:
					ln.nf = ln.fPrev + 1
				case bkBubble:
					ln.nf = ln.fPrev + 2
				case bkIMiss:
					ln.nf = ln.fPrev + ln.extraTab[g.cls]
				case bkMispredict:
					ln.nf = c + 1
				}
				ln.dPrev = c
				ln.dRing[ln.ri&15] = c
				ln.ri++
				if ln.ri == int(ln.depth) {
					ln.ri = 0
				}
				ln.lastAdmit = c
				ln.pos = pos
			}
		}
	}
}

// runW1 is the fused decompose+replay for width-1 streams, advancing
// every lane over [s.pos, limit). At width 1 every instruction is its
// own fetch group, so the group machinery degenerates: no group is
// materialized, the event bitset is unnecessary (the I-side class is
// read straight from the uop), and the fetch/drain recurrences and the
// single admission fuse into one per-instruction step with the whole
// lane state register-resident. bkIMiss never occurs at width 1 — a
// leading I-refill is charged by the empty fetch attempt instead.
func (s *bstream) runW1(limit int) {
	uops := s.mem.uops[:limit]
	br := s.br
	pos0 := s.pos
	mask := s.mask
	for li, ln := range s.lanes {
		nf, fPrev, dPrev := ln.nf, ln.fPrev, ln.dPrev
		dRing, ri := &ln.dRing, ln.ri
		exB, memFree := ln.exB, ln.memFree
		depStall := ln.depStall
		D := ln.depth
		dLen := int(D)
		extraTab := &ln.extraTab
		regReady := &ln.regReady
		mulLat, divLat := ln.mulLat, ln.divLat

		for p := pos0; p < limit; p++ {
			u := uops[p]
			// Built-in max compiles to CMOV chains: the comparisons
			// here are data-dependent and mispredict as branches.
			a := max(nf, dRing[ri&15])
			f := a
			if ic := (u >> uIClsShift) & 7; mask>>ic&1 != 0 {
				f = a + extraTab[ic]
			}
			c := max(f+D, dPrev+1, exB, memFree-1)
			r := max(regReady[u&63], regReady[(u>>uSrc2Shift)&63])
			if r > c {
				depStall += r - c
				c = r
			}
			switch (u >> uKindShift) & 3 {
			case ukSimple:
				regReady[(u>>uDstShift)&63] = c + 1
			case ukMem:
				mc := extraTab[(u>>uDClsShift)&7]
				if u&uLoadFwd != 0 {
					regReady[(u>>uDstShift)&63] = c + 2 + mc
				}
				memFree = c + 2 + mc
			default:
				lat := mulLat
				if (u>>uKindShift)&3 == ukDiv {
					lat = divLat
				}
				regReady[(u>>uDstShift)&63] = c + lat
				exB = c + lat
			}
			nf = f + 1
			if u&uJump != 0 {
				nf = f + 2
				if li == 0 {
					s.takenBubbles++
				}
			} else if u&uBranch != 0 {
				if br[p>>trace.ChunkShift][uint(p&trace.ChunkMask)>>6]&(1<<uint(p&63)) != 0 {
					nf = c + 1
					if li == 0 {
						s.mispredicts++
					}
				} else if u&uTaken != 0 {
					nf = f + 2
					if li == 0 {
						s.takenBubbles++
					}
				}
			}
			fPrev = f
			dPrev = c
			dRing[ri&15] = c
			ri++
			if ri == dLen {
				ri = 0
			}
		}

		ln.nf, ln.fPrev, ln.dPrev = nf, fPrev, dPrev
		ln.ri = ri
		ln.exB, ln.memFree = exB, memFree
		ln.depStall = depStall
		ln.lastAdmit = dPrev
		ln.pos = limit
	}
	s.pos = limit
}

// SimulateAnnotatedBatch replays tr on every design point in pts in a
// single chunk-major pass: each 16K-instruction chunk's uops and
// groups are computed once and consumed by every lane while they are
// cache-resident. Each point's Result is bit-identical to
// SimulateAnnotated(tr, pts[i].Cfg, pts[i].Ann).
func SimulateAnnotatedBatch(tr *trace.Trace, pts []BatchPoint) ([]Result, error) {
	return SimulateAnnotatedBatchCtx(context.Background(), tr, pts)
}

// SimulateAnnotatedBatchCtx is SimulateAnnotatedBatch under a context:
// cancellation is polled once per chunk of work and aborts the whole
// batch with ctx.Err(). A completed batch is unaffected by the
// context.
func SimulateAnnotatedBatchCtx(ctx context.Context, tr *trace.Trace, pts []BatchPoint) ([]Result, error) {
	results := make([]Result, len(pts))
	n := tr.Len()
	for i := range pts {
		if err := pts[i].Cfg.Validate(); err != nil {
			return nil, err
		}
		results[i].Instructions = n
	}
	if n == 0 || len(pts) == 0 {
		return results, nil
	}
	for i := range pts {
		ann := pts[i].Ann
		if ann.Mem.Len() != n || ann.Br.Len() != n {
			return nil, fmt.Errorf("pipeline: annotation planes cover %d/%d instructions, trace has %d",
				ann.Mem.Len(), ann.Br.Len(), n)
		}
	}

	// Pool shared work: uops per distinct memory plane, decomposition
	// per distinct (width, memory plane, branch plane).
	mems := make(map[*trace.BytePlane]*bmem)
	type streamKey struct {
		mem  *trace.BytePlane
		br   *trace.BitPlane
		w    int
		mask uint32
	}
	streams := make(map[streamKey]*bstream)
	var order []*bstream
	for i := range pts {
		cfg := &pts[i].Cfg
		ann := &pts[i].Ann
		if cfg.FrontEndDepth > 16 {
			// The lane drain ring is a fixed 16-slot array (Table 2's
			// deepest pipeline needs 6); reject rather than corrupt.
			return nil, fmt.Errorf("pipeline: batch replay supports front-end depth <= 16, got %d", cfg.FrontEndDepth)
		}
		bm := mems[ann.Mem]
		if bm == nil {
			uops, ev, ll := buildUops(tr, ann.Mem)
			bm = &bmem{uops: uops, ev: ev, llBlocks: ll}
			mems[ann.Mem] = bm
		}
		ln := &blane{
			out:     &results[i],
			mulLat:  int64(cfg.MulLatency),
			divLat:  int64(cfg.DivLatency),
			depth:   int64(cfg.FrontEndDepth),
			nf:      0,
			fPrev:   minCycle,
			dPrev:   minCycle,
			memFree: minCycle,
		}
		walk := int64(cfg.TLBWalkCycles())
		l2hit := int64(cfg.L2HitCycles())
		l2miss := int64(cfg.L2MissCycles())
		var mask uint32
		for cls := range ln.extraTab {
			var e int64
			if uint8(cls)&trace.AnnITLBMiss != 0 {
				e += walk
			}
			if uint8(cls)&trace.AnnIL1Miss != 0 {
				if uint8(cls)&trace.AnnIL2Miss != 0 {
					e += l2miss
				} else {
					e += l2hit
				}
			}
			ln.extraTab[cls] = e
			if e > 0 {
				mask |= 1 << cls
			}
		}
		for j := range ln.dRing {
			ln.dRing[j] = minCycle
		}
		ln.regReady[uRegDummy] = minCycle
		key := streamKey{mem: ann.Mem, br: ann.Br, w: cfg.Width, mask: mask}
		st := streams[key]
		if st == nil {
			st = &bstream{mem: bm, br: ann.Br.Chunks(), width: cfg.Width, mask: mask, stalled: -1, evPos: -1}
			streams[key] = st
			order = append(order, st)
		}
		st.lanes = append(st.lanes, ln)
	}

	// Chunk-major sweep: decompose each block once per stream and run
	// every lane over it while the uops and groups are hot. Blocks are
	// a quarter chunk so one block's uop column (16 KB) stays
	// L1-resident across the lane passes.
	const blockLen = trace.ChunkLen / 4
	ctxDone := ctx.Done()
	nInt := int(n)
	for cs := 0; cs < nInt; cs += blockLen {
		select {
		case <-ctxDone:
			return nil, ctx.Err()
		default:
		}
		limit := cs + blockLen
		if limit > nInt {
			limit = nInt
		}
		for _, st := range order {
			if st.width == 1 {
				st.runW1(limit)
				continue
			}
			st.decompose(limit, nInt)
			if len(st.lanes) == 1 {
				st.lanes[0].run(st.mem.uops, st.groups)
			} else {
				st.runMulti(st.groups)
			}
		}
	}

	for _, st := range order {
		for _, ln := range st.lanes {
			ln.out.Cycles = ln.lastAdmit + 3
			ln.out.Mispredicts = st.mispredicts
			ln.out.TakenBubbles = st.takenBubbles
			ln.out.LLBlocks = st.mem.llBlocks
			ln.out.DepStallCycles = ln.depStall
		}
	}
	for i := range pts {
		results[i].Cache = pts[i].Ann.MemStats
	}
	return results, nil
}
