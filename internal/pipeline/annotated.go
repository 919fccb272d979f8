package pipeline

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Annotation bundles the precomputed per-instruction machine events a
// timing-only replay consumes in place of live cache-hierarchy and
// branch-predictor objects. Mem holds one memory-event class byte per
// instruction (trace.Ann* bits) for cfg.Hier, MemStats the end-of-run
// hierarchy statistics of the same pass, and Br one mispredict bit per
// instruction for cfg.Predictor. Both planes are pure functions of the
// trace and their machine component — the blocking in-order pipeline
// touches memory in program order and trains the predictor at fetch in
// program order — so they are computed once per distinct component and
// shared by every design point (and every width/depth/frequency) that
// uses it.
type Annotation struct {
	Mem      *trace.BytePlane
	MemStats cache.Stats
	Br       *trace.BitPlane
}

// agroup is one fetch group in the annotated fast path. The detailed
// simulator only ever fetches consecutive trace positions into a
// group, so the un-admitted remainder is an interval: [start, end).
type agroup struct {
	start, end int64
}

// SimulateAnnotated replays tr on the design point cfg using the
// precomputed annotation planes: the hot loop is pure lockstep timing
// arithmetic over contiguous arrays — no cache hierarchy, no predictor
// virtual calls, no per-access map or set lookups. The memory-latency
// decode mirrors Simulate's arithmetic through an 8-entry table per
// annotation-byte side, and the common fetch case (no control
// transfer, all-hit fetch) collapses to a single flag test. Its Result
// is bit-identical to Simulate's, differentially tested across the
// full Table 2 space.
func SimulateAnnotated(tr *trace.Trace, cfg uarch.Config, ann Annotation) (Result, error) {
	return SimulateAnnotatedCtx(context.Background(), tr, cfg, ann)
}

// ctxCheckCycles is the cycle-loop stride between cancellation checks
// in SimulateAnnotatedCtx — one check per chunk's worth of work, so an
// abandoned replay stops within roughly a chunk boundary while the hot
// loop stays branch-predictable.
const ctxCheckCycles = trace.ChunkLen

// SimulateAnnotatedCtx is SimulateAnnotated under a context: the
// timing loop polls for cancellation every ~chunk's worth of cycles
// and aborts with ctx.Err(). Cancellation never changes a completed
// replay — the Result of an uncancelled run is bit-identical to
// SimulateAnnotated's.
func SimulateAnnotatedCtx(ctx context.Context, tr *trace.Trace, cfg uarch.Config, ann Annotation) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	ctxDone := ctx.Done()
	ctxCountdown := int64(ctxCheckCycles)
	var res Result
	n := tr.Len()
	res.Instructions = n
	if n == 0 {
		return res, nil
	}
	if ann.Mem.Len() != n || ann.Br.Len() != n {
		return Result{}, fmt.Errorf("pipeline: annotation planes cover %d/%d instructions, trace has %d",
			ann.Mem.Len(), ann.Br.Len(), n)
	}
	cols := tr.Chunks()
	mem := ann.Mem.Chunks()
	br := ann.Br.Chunks()

	W := int64(cfg.Width)
	D := cfg.FrontEndDepth
	mulLat := int64(cfg.MulLatency)
	divLat := int64(cfg.DivLatency)

	// extraTab[c] is the extra memory latency of event class c (either
	// side of the annotation byte, shifted into the low three bits):
	// a TLB walk plus, on an L1 miss, the L2 hit or L2 miss latency.
	var extraTab [8]int64
	{
		walk := int64(cfg.TLBWalkCycles())
		l2hit := int64(cfg.L2HitCycles())
		l2miss := int64(cfg.L2MissCycles())
		for c := range extraTab {
			var e int64
			if uint8(c)&trace.AnnITLBMiss != 0 {
				e += walk
			}
			if uint8(c)&trace.AnnIL1Miss != 0 {
				if uint8(c)&trace.AnnIL2Miss != 0 {
					e += l2miss
				} else {
					e += l2hit
				}
			}
			extraTab[c] = e
		}
	}

	// Stage i holds backing[order[i]]; order[0] is the fetch stage,
	// order[D-1] feeds execute, and the lockstep shift permutes the
	// order array exactly as in Simulate.
	backing := make([]agroup, D)
	order := make([]int32, D)
	for i := range order {
		order[i] = int32(i)
	}
	last := D - 1

	var regReady [isa.NumRegs]int64
	var (
		cycle          int64
		exBlockedUntil int64 // execute cannot accept before this cycle
		memFree        int64 // memory stage can accept a new group at this cycle
		nextFetch      int64
		fetchBlocked   bool  // stalled on an unresolved mispredicted branch
		pendingBranch  int64 // trace index of the mispredicted branch being waited on
		pos            int64 // next trace index to fetch
		lastAdmit      int64
		inFlight       int64      // instructions currently in the front-end
		emptyStages    = D        // stages currently holding no instructions
		maxRegReady    int64      // upper bound on every regReady entry
		stalledPos     int64 = -1 // instruction whose I-stall was already charged
	)

	for pos < n || inFlight > 0 {
		if ctxCountdown--; ctxCountdown <= 0 {
			select {
			case <-ctxDone:
				return Result{}, ctx.Err()
			default:
			}
			ctxCountdown = ctxCheckCycles
		}
		// --- Execute admission from the last front-end stage -------------
		// Execute-blocked and memory-blocked are admission-loop
		// invariants (exBlockedUntil only moves on a mul/div admission,
		// which ends the loop; memFree only moves after it), so they
		// are checked once.
		var admitted int64
		var memCum int64 // cumulative extra memory-stage cycles this group
		groupHasMem := false
		depBlocked := false
		var depReady int64 // cycle the blocking instruction's operands are all ready
		g := &backing[order[last]]
		if cycle >= exBlockedUntil && memFree <= cycle+1 {
			for admitted < W && g.start < g.end {
				idx := g.start
				ck := &cols[idx>>trace.ChunkShift]
				j := int(idx & trace.ChunkMask)
				st := &ck.Static[ck.ID[j]]
				fl := st.Flags
				if maxRegReady > cycle {
					// Some register is still being produced; check this
					// instruction's sources (at most two).
					if numSrc := fl >> trace.NumSrcShift; numSrc > 0 {
						if r := regReady[st.Src1]; r > cycle {
							depBlocked = true
							if r > depReady {
								depReady = r
							}
						}
						if numSrc > 1 {
							if r := regReady[st.Src2]; r > cycle {
								depBlocked = true
								if r > depReady {
									depReady = r
								}
							}
						}
						if depBlocked {
							break
						}
					}
				}

				// Admit.
				g.start++
				inFlight--
				admitted++
				lastAdmit = cycle
				stop := false

				switch class := st.Class; class {
				case isa.ClassMul, isa.ClassDiv:
					lat := mulLat
					if class == isa.ClassDiv {
						lat = divLat
					}
					if fl&trace.FlagHasDst != 0 {
						regReady[st.Dst] = cycle + lat
						if cycle+lat > maxRegReady {
							maxRegReady = cycle + lat
						}
					}
					exBlockedUntil = cycle + lat
					res.LLBlocks++
					stop = true // newer instructions stall behind the blocked EX
				case isa.ClassLoad, isa.ClassStore:
					// The plane byte replaces the hierarchy walk: the
					// data side's event class decodes to the exact
					// extra latency Simulate would have computed.
					extra := extraTab[(mem[idx>>trace.ChunkShift][j]>>trace.AnnDShift)&trace.AnnSideMask]
					memCum += extra
					groupHasMem = true
					if fl&(trace.FlagLoad|trace.FlagHasDst) == trace.FlagLoad|trace.FlagHasDst {
						// Load value forwarded when it leaves the
						// memory stage.
						regReady[st.Dst] = cycle + 2 + memCum
						if cycle+2+memCum > maxRegReady {
							maxRegReady = cycle + 2 + memCum
						}
					}
				default:
					if fl&trace.FlagHasDst != 0 {
						regReady[st.Dst] = cycle + 1
						if cycle+1 > maxRegReady {
							maxRegReady = cycle + 1
						}
					}
				}
				if fetchBlocked && fl&trace.FlagBranch != 0 && idx == pendingBranch {
					// Mispredicted branch resolves at the end of this cycle.
					fetchBlocked = false
					if nextFetch < cycle+1 {
						nextFetch = cycle + 1
					}
				}
				if stop {
					break
				}
			}
		}
		if admitted > 0 {
			if groupHasMem {
				// The group occupies the memory stage during [cycle+1,
				// cycle+1+memCum]; the next group may enter afterwards.
				memFree = cycle + 2 + memCum
			}
			if g.start >= g.end {
				emptyStages++
			}
		} else if depBlocked {
			res.DepStallCycles++
		}

		// --- Lockstep shift: each group advances when the next stage is
		// empty, back to front, one stage per cycle. ---------------------
		shifted := false
		if emptyStages == 1 && last > 0 && g.start >= g.end {
			// Steady state: the group execute just drained is the only
			// bubble, so every group advances — a rotation.
			e := order[last]
			copy(order[1:], order[:last])
			order[0] = e
			shifted = true
		} else if emptyStages > 0 && emptyStages < D {
			for i := last; i > 0; i-- {
				a, b := &backing[order[i]], &backing[order[i-1]]
				if a.start >= a.end && b.start < b.end {
					order[i], order[i-1] = order[i-1], order[i]
					shifted = true
				}
			}
		}

		// --- Fetch into stage 0 -------------------------------------------
		fetched := false
		fg := &backing[order[0]]
		if !fetchBlocked && pos < n && cycle >= nextFetch && fg.start >= fg.end {
			start := pos
			redirected := false
			lim := pos + W
			for pos < lim && pos < n {
				ci := pos >> trace.ChunkShift
				j := int(pos & trace.ChunkMask)
				fl := cols[ci].Static[cols[ci].ID[j]].Flags
				mb := mem[ci][j]
				if fl&(trace.FlagJump|trace.FlagBranch) == 0 && mb&trace.AnnSideMask == 0 {
					// Common case: no control transfer, fetch hits
					// everywhere — the instruction just joins the group.
					pos++
					continue
				}
				// I-side events come from the plane: a non-zero class
				// is a miss whose latency stalls fetch. The stall is
				// charged once per instruction — in Simulate the retry
				// after the refill hits, because the first access
				// already filled the caches and TLB.
				if pos != stalledPos {
					if extra := extraTab[mb&trace.AnnSideMask]; extra > 0 {
						// Fetch resumes when the missing block arrives;
						// instructions already fetched this cycle are
						// hidden underneath the miss.
						stalledPos = pos
						nextFetch = cycle + extra
						redirected = true
						break
					}
				}
				pos++

				if fl&trace.FlagJump != 0 {
					// Unconditional transfer: redirect known one cycle
					// after fetch — one bubble, group ends here.
					res.TakenBubbles++
					nextFetch = cycle + 2
					redirected = true
					break
				}
				if fl&trace.FlagBranch != 0 {
					if br[ci][uint(j)>>6]&(1<<uint(j&63)) != 0 {
						res.Mispredicts++
						fetchBlocked = true
						pendingBranch = pos - 1
						redirected = true
						break
					}
					if fl&trace.FlagTaken != 0 {
						res.TakenBubbles++
						nextFetch = cycle + 2
						redirected = true
						break
					}
				}
			}
			if !redirected {
				nextFetch = cycle + 1
			}
			if pos > start {
				fg.start, fg.end = start, pos
				inFlight += pos - start
				fetched = true
				emptyStages--
			}
		}

		// --- Advance time ---------------------------------------------------
		next := cycle + 1
		if inFlight == 0 && pos < n {
			// Empty pipeline waiting on fetch (I-miss or mispredict
			// resolution already recorded in nextFetch).
			if !fetchBlocked && nextFetch > next {
				next = nextFetch
			}
		} else if admitted == 0 && !shifted && !fetched {
			if e := &backing[order[last]]; e.start < e.end {
				// Execute is blocked and the front-end is frozen: no
				// group can move, so the machine state cannot change
				// before the blocking condition clears (or a pending
				// fetch fires). Jump there; the skipped cycles are
				// exactly the dependence-stall cycles the per-cycle
				// loop would have counted.
				target := exBlockedUntil
				if memFree-1 > target {
					target = memFree - 1
				}
				if depBlocked {
					// Execute and memory were clear this cycle and stay
					// clear; the group admits when the operands arrive.
					target = depReady
				}
				if !fetchBlocked && pos < n {
					if f := &backing[order[0]]; f.start >= f.end {
						// A pending I-refill wakes the front-end first.
						wake := nextFetch
						if wake < next {
							wake = next
						}
						if wake < target {
							target = wake
						}
					}
				}
				if target > next {
					if depBlocked {
						res.DepStallCycles += target - next
					}
					next = target
				}
			}
		}
		cycle = next
	}

	// Drain: the last admitted group retires after memory and write-back.
	res.Cycles = lastAdmit + 3
	res.Cache = ann.MemStats
	return res, nil
}
