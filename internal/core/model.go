// Package core implements the paper's primary contribution: the
// mechanistic analytical performance model for superscalar in-order
// processors (Breughe, Eyerman, Eeckhout, ISPASS 2012).
//
// The model estimates total execution cycles as
//
//	T = N/W + P_misses + P_LL + P_deps            (Eq. 1)
//
// from machine-independent program statistics (package profile),
// mixed program/machine statistics (cache and branch-predictor miss
// counts, packages cache and branch) and machine parameters (package
// uarch). Because evaluation is a handful of closed-form formulas, a
// prediction is effectively instantaneous; profiling is the only
// per-program cost, paid once per binary for the whole design space.
package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/uarch"
)

// Component identifies one term of the CPI stack.
type Component int

// CPI stack components. Base is the ideal N/W term; the remainder are
// penalty terms in the order the paper introduces them.
const (
	Base Component = iota
	MulDiv
	IL1L2Hit // I-fetch L1 misses that hit in L2 ("l2 access", I side)
	IL2Miss  // I-fetch misses in both L1 and L2
	DL1L2Hit // data L1 misses that hit in L2 ("l2 access", D side)
	DL2Miss  // data misses in both L1 and L2
	ITLBMiss
	DTLBMiss
	BrMiss  // branch misprediction flushes
	BrTaken // taken-redirect bubbles on correctly-predicted control flow
	DepUnit // stalls on unit-latency producers (Eq. 11)
	DepLL   // stalls on long-latency producers (Eq. 12)
	DepLd   // stalls on load producers (Eq. 16)

	NumComponents
)

var componentNames = [NumComponents]string{
	"base", "mul/div", "il1->l2", "il2 miss", "dl1->l2", "dl2 miss",
	"itlb", "dtlb", "bpred miss", "bpred taken", "dep unit", "dep LL", "dep load",
}

func (c Component) String() string {
	if c >= 0 && c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// Inputs gathers everything the model consumes (Table 1).
type Inputs struct {
	Prof   *profile.Profile // machine-independent program statistics
	Mem    cache.Stats      // cache/TLB miss counts for the chosen hierarchy
	Branch branch.Stats     // misprediction and taken counts for the chosen predictor
}

// Options tune model variants. The zero value is the paper's model.
type Options struct {
	// TakenFragmentation adds a second-order correction of
	// (W-1)/(2W) cycles per taken-redirect bubble for the unfetched
	// slots of the fetch group a taken control transfer ends. The
	// paper's first-order model omits it; it is provided for the
	// ablation study in EXPERIMENTS.md.
	TakenFragmentation bool
}

// Stack is a CPI stack: per-component cycle counts for one program on
// one design point.
type Stack struct {
	Cycles [NumComponents]float64
	N      int64 // dynamic instruction count
}

// Total returns the predicted total execution cycles T (Eq. 1).
func (s *Stack) Total() float64 {
	var t float64
	for _, c := range s.Cycles {
		t += c
	}
	return t
}

// CPI returns total cycles per instruction.
func (s *Stack) CPI() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Total() / float64(s.N)
}

// CPIOf returns one component in cycles per instruction.
func (s *Stack) CPIOf(c Component) float64 {
	if s.N == 0 {
		return 0
	}
	return s.Cycles[c] / float64(s.N)
}

// Deps returns the total dependency CPI (Eq. 7).
func (s *Stack) Deps() float64 { return s.CPIOf(DepUnit) + s.CPIOf(DepLL) + s.CPIOf(DepLd) }

// L2Access returns the combined "l2 access" CPI (I+D L1 misses hitting
// L2), the grouping used in Figure 4 of the paper.
func (s *Stack) L2Access() float64 { return s.CPIOf(IL1L2Hit) + s.CPIOf(DL1L2Hit) }

// L2Miss returns the combined "l2 miss" CPI (I+D misses in L2).
func (s *Stack) L2Miss() float64 { return s.CPIOf(IL2Miss) + s.CPIOf(DL2Miss) }

// TLB returns the combined TLB-miss CPI.
func (s *Stack) TLB() float64 { return s.CPIOf(ITLBMiss) + s.CPIOf(DTLBMiss) }

// String renders the stack as one line of CPI contributions.
func (s *Stack) String() string {
	out := fmt.Sprintf("CPI %.4f =", s.CPI())
	for c := Component(0); c < NumComponents; c++ {
		if s.Cycles[c] != 0 {
			out += fmt.Sprintf(" %s:%.4f", c, s.CPIOf(c))
		}
	}
	return out
}

// Predict evaluates the mechanistic model for the given inputs and
// design point with default options.
func Predict(in Inputs, cfg uarch.Config) (*Stack, error) {
	return PredictOpts(in, cfg, Options{})
}

// PredictOpts evaluates the mechanistic model with explicit options.
func PredictOpts(in Inputs, cfg uarch.Config, opt Options) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if in.Prof == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	p := in.Prof
	if p.N == 0 {
		return nil, fmt.Errorf("core: empty profile %q", p.Name)
	}

	W := float64(cfg.Width)
	D := float64(cfg.FrontEndDepth)
	adj := (W - 1) / (2 * W) // average overlap with older same-group instructions

	s := &Stack{N: p.N}

	// Base: Eq. 1's N/W term.
	s.Cycles[Base] = float64(p.N) / W

	// Long-latency instructions: Eq. 5/6 with penalty (lat-1) - adj.
	s.Cycles[MulDiv] = float64(float64(p.NMul)*llPenalty(cfg.MulLatency, adj)) +
		float64(float64(p.NDiv)*llPenalty(cfg.DivLatency, adj))

	// Miss events: Eq. 2/3 with penalty MissLatency - adj. L2-hit loads
	// are the paper's "L2 cache hits due to loads" long-latency class;
	// algebraically their (1+lat-1)-adj penalty equals the miss-event
	// form, so all L1-miss events are tabulated here uniformly.
	l2hit := float64(cfg.L2HitCycles())
	l2miss := float64(cfg.L2MissCycles())
	walk := float64(cfg.TLBWalkCycles())
	s.Cycles[IL1L2Hit] = float64(in.Mem.IL1Misses-in.Mem.IL2Misses) * missPenalty(l2hit, adj)
	s.Cycles[IL2Miss] = float64(in.Mem.IL2Misses) * missPenalty(l2miss, adj)
	s.Cycles[DL1L2Hit] = float64(in.Mem.DL1Misses-in.Mem.DL2Misses) * missPenalty(l2hit, adj)
	s.Cycles[DL2Miss] = float64(in.Mem.DL2Misses) * missPenalty(l2miss, adj)
	s.Cycles[ITLBMiss] = float64(in.Mem.ITLBMisses) * missPenalty(walk, adj)
	s.Cycles[DTLBMiss] = float64(in.Mem.DTLBMisses) * missPenalty(walk, adj)

	// Branch mispredictions: Eq. 4, penalty D + adj.
	s.Cycles[BrMiss] = float64(in.Branch.Mispredicts) * (D + adj)

	// Taken-branch hit penalty: one fetch bubble per correctly
	// predicted taken branch or unconditional transfer (§3.3).
	taken := float64(in.Branch.TakenBubbles())
	s.Cycles[BrTaken] = taken
	if opt.TakenFragmentation {
		s.Cycles[BrTaken] += float64(taken * adj)
	}

	// Dependencies.
	wi := cfg.Width
	// Eq. 11: unit-latency producers, d in [1, W-1].
	var du float64
	for d := 1; d < wi; d++ {
		f := (W - float64(d)) / W
		du += float64(float64(p.DepsUnit.Count[d]) * f * f)
	}
	s.Cycles[DepUnit] = du
	// Eq. 12: long-latency producers, d in [1, W-1].
	var dll float64
	for d := 1; d < wi; d++ {
		dll += float64(p.DepsLL.Count[d]) * (W - float64(d)) / W
	}
	s.Cycles[DepLL] = dll
	// Eq. 16: load producers, d in [1, 2W-1].
	var dld float64
	for d := 1; d < wi; d++ {
		fd := float64(d)
		dld += float64(float64(p.DepsLd.Count[d]) * ((W-fd)/W*(2*W-fd)/W + fd/W))
	}
	for d := wi; d < 2*wi; d++ {
		f := (2*W - float64(d)) / W
		dld += float64(float64(p.DepsLd.Count[d]) * f * f)
	}
	s.Cycles[DepLd] = dld

	return s, nil
}

func llPenalty(lat int, adj float64) float64 {
	p := float64(lat-1) - adj
	if p < 0 {
		return 0
	}
	return p
}

func missPenalty(lat, adj float64) float64 {
	p := lat - adj
	if p < 0 {
		return 0
	}
	return p
}
