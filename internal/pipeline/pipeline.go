// Package pipeline is the detailed cycle-accurate simulator of the
// superscalar in-order processor described in §2.2 of the paper. It
// plays the role M5's detailed mode plays there: the reference against
// which the mechanistic model is validated.
//
// Microarchitecture (paper §2.2):
//
//   - W-wide rigid lockstep pipeline: the front-end is D stages (fetch
//     plus decodes), each holding one fetch group of up to W
//     instructions; a group advances one stage per cycle when the stage
//     ahead is empty. Bubbles propagate without compaction, exactly as
//     the model's additive penalty accounting assumes.
//   - Full forwarding; stall-on-use: an instruction waits in the last
//     decode stage until its operands are ready, blocking younger
//     instructions (and, by back-pressure, the whole front-end).
//   - Long-latency instructions (mul/div) block the execute stage for
//     their full latency; all newer instructions stall behind them
//     (in-order commit, precise interrupts).
//   - Loads/stores access the D-cache in the memory stage; a miss
//     blocks the memory stage and, via back-pressure, execute.
//   - Branches are predicted one cycle after fetch: a predicted-taken
//     control transfer ends its fetch group and costs one fetch bubble;
//     a misprediction flushes the front-end and stalls fetch until the
//     branch resolves in execute (penalty ≈ D plus the wrong-path slots
//     of the branch's own group).
//   - I-cache/ITLB misses stall fetch while the front-end drains; the
//     drain and refill offset, so the penalty is independent of D, as
//     the paper argues.
//
// The simulator is trace driven: it replays the dynamic instruction
// stream produced by the functional simulator. Wrong-path fetch is not
// simulated; its first-order cost (fetch stalled until resolution) is.
package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Result reports one detailed simulation.
type Result struct {
	Cycles       int64
	Instructions int64

	// Event counts observed by the simulator (for cross-checking the
	// profiling collectors).
	Mispredicts    int64
	TakenBubbles   int64
	Cache          cache.Stats
	LLBlocks       int64 // mul/div issued
	DepStallCycles int64 // cycles execute admitted nothing due to operand wait
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// maxWidth bounds the group arrays; uarch.Config.Validate enforces it.
const maxWidth = 8

// group is one fetch group flowing through the front-end stages.
type group struct {
	idx  [maxWidth]int64 // trace indices (= dynamic sequence numbers)
	n    int             // valid entries
	head int             // first un-admitted entry
}

func (g *group) empty() bool { return g.head >= g.n }

// Simulate replays tr on the design point cfg. The inner loops read
// the trace's columns directly — each instruction's dictionary id, with
// its static fields from the L1-resident dictionary, and each load's or
// store's effective address — instead of decoding per-instruction
// records, so the replay streams compact arrays.
func Simulate(tr *trace.Trace, cfg uarch.Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	n := tr.Len()
	res.Instructions = n
	if n == 0 {
		return res, nil
	}
	cols := tr.Chunks()

	hier, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		return Result{}, err
	}
	pred := cfg.Predictor.New()

	W := cfg.Width
	D := cfg.FrontEndDepth
	l2hit := int64(cfg.L2HitCycles())
	l2miss := int64(cfg.L2MissCycles())
	walk := int64(cfg.TLBWalkCycles())
	mulLat := int64(cfg.MulLatency)
	divLat := int64(cfg.DivLatency)

	// stage i holds the group backing[order[i]]; order[0] is the fetch
	// stage, order[D-1] feeds execute. Groups are fixed objects and the
	// lockstep shift permutes the int32 order array — pointer-free, so
	// the common full-cascade rotation is a tiny memmove with no write
	// barriers, and group values are never copied.
	backing := make([]group, D)
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
		inFlight       int   // instructions currently in the front-end
		emptyStages    = D   // stages currently holding no instructions
		maxRegReady    int64 // upper bound on every regReady entry
		warmIFetches   int64 // batched same-block I-fetch hits (IWarmHit)
		addrChunk      int64 // chunk whose Addr column addrK walks
		addrK          int   // Addr index of the next load or store admitted
	)

	for pos < n || inFlight > 0 {
		// --- Execute admission from the last front-end stage -------------
		admitted := 0
		var memCum int64 // cumulative extra memory-stage cycles this group
		groupHasMem := false
		depBlocked := false
		var depReady int64 // cycle the blocking instruction's operands are all ready
		g := &backing[order[last]]
		// Execute-blocked and memory-blocked are admission-loop
		// invariants: exBlockedUntil only moves on a mul/div admission,
		// which ends the loop, and memFree only moves after it.
		for cycle >= exBlockedUntil && memFree <= cycle+1 && admitted < W && !g.empty() {
			idx := g.idx[g.head]
			ck := &cols[idx>>trace.ChunkShift]
			j := int(idx & trace.ChunkMask)
			st := ck.Tuple(j)
			fl := st.Flags
			srcOK := true
			if maxRegReady > cycle {
				// Some register is still being produced; check this
				// instruction's sources (at most two).
				if numSrc := fl >> trace.NumSrcShift; numSrc > 0 {
					if r := regReady[st.Src1]; r > cycle {
						srcOK = false
						if r > depReady {
							depReady = r
						}
					}
					if numSrc > 1 {
						if r := regReady[st.Src2]; r > cycle {
							srcOK = false
							if r > depReady {
								depReady = r
							}
						}
					}
				}
			}
			if !srcOK {
				depBlocked = true
				break
			}

			// Admit.
			g.head++
			inFlight--
			admitted++
			lastAdmit = cycle
			stop := false
			var eff int64
			if fl&trace.FlagMem != 0 {
				// Execute admits in trace order, so one cursor walks
				// each chunk's dense address column.
				if c := idx >> trace.ChunkShift; c != addrChunk {
					addrChunk, addrK = c, 0
				}
				eff = int64(ck.Addr[addrK])
				addrK++
			}

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
				var extra int64
				isStore := fl&trace.FlagStore != 0
				if !hier.AccessDWarm(eff, isStore) {
					r := hier.AccessD(eff, isStore)
					if !r.TLBHit {
						extra += walk
					}
					if !r.L1Hit {
						if r.L2Hit {
							extra += l2hit
						} else {
							extra += l2miss
						}
					}
				}
				memCum += extra
				groupHasMem = true
				if fl&(trace.FlagLoad|trace.FlagHasDst) == trace.FlagLoad|trace.FlagHasDst {
					// Load value forwarded when it leaves the memory
					// stage: entered MEM at cycle+1, plus blocking time
					// of this and earlier memory ops in the group.
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
		if admitted > 0 && groupHasMem {
			// The group occupies the memory stage during [cycle+1,
			// cycle+1+memCum]; the next group may enter afterwards.
			memFree = cycle + 2 + memCum
		}
		if admitted == 0 && depBlocked {
			res.DepStallCycles++
		}
		if admitted > 0 && g.empty() {
			emptyStages++
		}

		// --- Lockstep shift: each group advances when the next stage is
		// empty, back to front, one stage per cycle. Swapping pointers
		// moves bubbles without moving data; a full pipeline (no empty
		// stage) cannot shift at all. ---------------------------------------
		shifted := false
		if emptyStages == 1 && last > 0 && g.empty() {
			// Steady state: the group execute just drained is the only
			// bubble, so every group advances — a rotation.
			e := order[last]
			copy(order[1:], order[:last])
			order[0] = e
			shifted = true
		} else if emptyStages > 0 && emptyStages < D {
			for i := last; i > 0; i-- {
				if backing[order[i]].empty() && !backing[order[i-1]].empty() {
					order[i], order[i-1] = order[i-1], order[i]
					shifted = true
				}
			}
		}

		// --- Fetch into stage 0 -------------------------------------------
		fetched := false
		if !fetchBlocked && pos < n && cycle >= nextFetch && backing[order[0]].empty() {
			ng := &backing[order[0]]
			ng.n, ng.head = 0, 0
			redirected := false
			for ng.n < W && pos < n {
				ck := &cols[pos>>trace.ChunkShift]
				st := ck.Tuple(int(pos & trace.ChunkMask))
				pc := int64(st.PC)
				fl := st.Flags
				var extra int64
				if hier.IWarmHit(pc) {
					warmIFetches++
				} else {
					ir := hier.AccessI(pc)
					if !ir.TLBHit {
						extra += walk
					}
					if !ir.L1Hit {
						if ir.L2Hit {
							extra += l2hit
						} else {
							extra += l2miss
						}
					}
				}
				if extra > 0 {
					// The missing block arrives `extra` cycles from now;
					// fetch resumes there (instructions already fetched
					// this cycle are hidden underneath the miss).
					nextFetch = cycle + extra
					redirected = true
					break
				}
				ng.idx[ng.n] = pos
				ng.n++
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
					taken := fl&trace.FlagTaken != 0
					p := pred.Predict(pc)
					pred.Update(pc, taken)
					if p != taken {
						res.Mispredicts++
						fetchBlocked = true
						pendingBranch = pos - 1
						redirected = true
						break
					}
					if taken {
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
			inFlight += ng.n
			fetched = ng.n > 0
			if fetched {
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
		} else if admitted == 0 && !shifted && !fetched && !backing[order[last]].empty() {
			// Execute is blocked and the front-end is frozen: no group
			// can move, so the machine state cannot change before the
			// blocking condition clears (or a pending fetch fires).
			// Jump there instead of idling cycle by cycle; the skipped
			// cycles are exactly the dependence-stall cycles the
			// per-cycle loop would have counted.
			target := exBlockedUntil
			if memFree-1 > target {
				target = memFree - 1
			}
			if depBlocked {
				// Execute and memory were clear this cycle and stay
				// clear; the group admits when the operands arrive.
				target = depReady
			}
			if !fetchBlocked && pos < n && backing[order[0]].empty() {
				// A pending I-refill wakes the front-end first.
				wake := nextFetch
				if wake < next {
					wake = next
				}
				if wake < target {
					target = wake
				}
			}
			if target > next {
				if depBlocked {
					res.DepStallCycles += target - next
				}
				next = target
			}
		}
		cycle = next
	}

	// Drain: the last admitted group retires after memory and write-back.
	hier.CreditIWarm(warmIFetches)
	res.Cycles = lastAdmit + 3
	res.Cache = hier.S
	return res, nil
}

// SimulateProgramTrace validates the trace is non-empty and runs
// Simulate.
func SimulateProgramTrace(tr *trace.Trace, cfg uarch.Config) (Result, error) {
	if tr.Len() == 0 {
		return Result{}, fmt.Errorf("pipeline: empty trace")
	}
	return Simulate(tr, cfg)
}
